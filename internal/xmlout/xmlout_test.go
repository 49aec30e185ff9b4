package xmlout

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"webrev/internal/dom"
)

func sample() *dom.Node {
	edu := dom.Elem("education", []string{"val", "Education"},
		dom.Elem("date", []string{"val", "June 1996"},
			dom.Elem("institution", []string{"val", "UC Davis"}),
			dom.Elem("degree", []string{"val", "B.S."}),
		),
	)
	return dom.Elem("resume", nil, edu)
}

func TestMarshalIndented(t *testing.T) {
	got := Marshal(sample())
	if !strings.HasPrefix(got, `<?xml version="1.0"`) {
		t.Fatalf("missing declaration: %s", got)
	}
	if !strings.Contains(got, "\n  <education") {
		t.Fatalf("not indented:\n%s", got)
	}
}

func TestMarshalEscaping(t *testing.T) {
	n := dom.Elem("x", []string{"val", `a<b>&"c`}, dom.NewText("1 < 2 & 3"))
	got := Marshal(n)
	want := xmlHeader + `<x val="a&lt;b>&amp;&quot;c">` + "\n  1 &lt; 2 &amp; 3\n</x>\n"
	if got != want {
		t.Fatalf("got %s", got)
	}
}

func TestMarshalCommentAndDoctype(t *testing.T) {
	doc := dom.NewDocument()
	doc.AppendChild(&dom.Node{Type: dom.DoctypeNode, Text: "resume SYSTEM \"resume.dtd\""})
	doc.AppendChild(dom.NewComment("a--b"))
	doc.AppendChild(dom.NewElement("resume"))
	got := Marshal(doc)
	if !strings.Contains(got, "\n<!DOCTYPE resume") || !strings.Contains(got, "\n<!--a- -b-->\n") {
		t.Fatalf("got %s", got)
	}
}

// TestMarshalWritesDecodableXML: the shapes a tree can hold that XML
// cannot say as they are (an element whose children are only blank text
// or a doctype, a comment holding "--" or ending in '-') are written so
// that the decoder reads them back and they re-marshal to the same bytes.
func TestMarshalWritesDecodableXML(t *testing.T) {
	for _, c := range []struct {
		tree *dom.Node
		want string
	}{
		{dom.Elem("a", nil, dom.NewText(" \n "), dom.NewText("")), "<a/>\n"},
		{dom.Elem("a", nil, &dom.Node{Type: dom.DoctypeNode, Text: "a"}), "<a/>\n"},
		{dom.Elem("a", nil, dom.NewText(" "), dom.Elem("b", nil)), "<a>\n  <b/>\n</a>\n"},
		{dom.Elem("a", nil, dom.NewComment("a--b")), "<a>\n  <!--a- -b-->\n</a>\n"},
		{dom.Elem("a", nil, dom.NewComment("x-")), "<a>\n  <!--x- -->\n</a>\n"},
		{dom.Elem("a", nil, dom.NewComment("---")), "<a>\n  <!--- - - -->\n</a>\n"},
	} {
		got := Marshal(c.tree)
		if got != xmlHeader+c.want {
			t.Errorf("Marshal(%s) = %q, want %q", c.tree, got, xmlHeader+c.want)
			continue
		}
		root, err := UnmarshalElement(got)
		if err != nil {
			t.Errorf("UnmarshalElement(%q): %v", got, err)
			continue
		}
		if again := Marshal(root); again != got {
			t.Errorf("%q re-marshals to %q", got, again)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	orig := sample()
	parsed, err := UnmarshalElement(Marshal(orig))
	if err != nil {
		t.Fatal(err)
	}
	if !orig.Equal(parsed) {
		t.Fatalf("round trip mismatch:\norig   %s\nparsed %s", orig.String(), parsed.String())
	}
}

func TestUnmarshalErrors(t *testing.T) {
	for _, bad := range []string{
		`<a><b></a></b>`, `<a>`, `</a>`, `<a/><b/>`, ``, `text only`,
	} {
		for _, src := range []string{bad, xmlHeader + bad, xmlHeader + bad + "\n"} {
			if _, err := UnmarshalElement(src); err == nil {
				t.Errorf("UnmarshalElement(%q) should fail", src)
			}
		}
	}
}

// TestUnmarshalRejectsNonCanonical: the decoder reads only what Marshal
// writes. Each input below is well-formed XML, or close to it, that
// Marshal cannot emit, so it is an error rather than a best-effort parse;
// so are the stored shapes of the converter leaks.
func TestUnmarshalRejectsNonCanonical(t *testing.T) {
	for _, body := range []string{
		`<a/>`,                         // no final newline
		"<a/>\n\n",                     // blank line after the root
		" <a/>\n",                      // root indented
		"<a>\n<b/>\n</a>\n",            // child not indented
		"<a>\n    <b/>\n</a>\n",        // child indented twice
		"<a>\n  <b/>\n  </a>\n",        // end tag indented as a child
		"<a>\n</a>\n",                  // start tag with no content
		"<a>\n  <b/>\n</c>\n",          // mismatched end tag
		"<a>\n  <b/>\n</a >\n",         // space in an end tag
		"<a  b=\"1\"/>\n",              // two spaces before an attribute
		"<a b='1'/>\n",                 // single-quoted value
		"<a b=\"1\" b=\"2\"/>\n",       // repeated attribute
		"<a b=\"&apos;\"/>\n",          // a reference WriteAttr never writes
		"<a b=\"&gt;\"/>\n",            // ditto
		"<a b=\"&#65;\"/>\n",           // a numeric reference
		"<a b=\"x\ty\"/>\n",            // raw tab (WriteAttr writes &#9;)
		"<a b=\"x<y\"/>\n",             // raw '<'
		"<a b=\"\x01\"/>\n",            // control character
		"<a b=\"\uFFFE\"/>\n",          // non-character
		"<a b=\"\xff\"/>\n",            // invalid UTF-8
		"<a>\n  x &quot; y\n</a>\n",    // a reference WriteText never writes
		"<a>\n  x > y\n</a>\n",         // raw '>' in text
		"<a>\n  x \n</a>\n",            // untrimmed text
		"<a>\n  x\n  <b/>y\n</a>\n",    // text after a tag on its line
		"<a>\n  <!--x--y-->\n</a>\n",   // "--" inside a comment
		"<a>\n  <!--x--->\n</a>\n",     // comment ending in '-'
		"<!--c-->\n<a/>\n",             // comment before the root
		"<a/>\n<!--c-->\n",             // comment after the root
		"<!DOCTYPE a>\n<a/>\n",         // doctype
		"<a>\n  <![CDATA[x]]>\n</a>\n", // CDATA section
		"<a:b:c/>\n",                   // two colons
		"<1a/>\n",                      // a digit starts a name
		"<a !=\"\"/>\n",                // not a name
	} {
		if root, err := UnmarshalElement(xmlHeader + body); err == nil {
			t.Errorf("UnmarshalElement(%q) = %s, want an error", body, root)
		}
	}
	if _, err := UnmarshalElement(`<?xml version="1.0"?>` + "\n<a/>\n"); err == nil {
		t.Error("a different XML declaration should fail")
	}
	for _, src := range leakShapes {
		if root, err := UnmarshalElement(src); err == nil {
			t.Errorf("converter leak %q decoded to %s, want an error", src, root)
		}
	}
}

// mixed is a tree with every kind of item Marshal writes: prefixed and
// non-ASCII names, escaped values with a CR, a comment and a text.
func mixed() *dom.Node {
	return dom.Elem("é:x", []string{"x:y", "1", "val", "a\rb\tc\nd &<>\"", "y", "2"},
		dom.NewComment(" a < b & c "),
		dom.NewText("p\rq\tr &<> \uFFFD"),
		dom.Elem("z", nil),
	)
}

// TestUnmarshalVerbatim: names and values come back exactly as stored. A
// prefixed name keeps its prefix and a CR stays a CR, so a document read
// back from a store conforms exactly like the tree that was stored.
func TestUnmarshalVerbatim(t *testing.T) {
	orig := mixed()
	got, err := UnmarshalElement(Marshal(orig))
	if err != nil {
		t.Fatal(err)
	}
	if !orig.Equal(got) {
		t.Fatalf("decoded %s\nwant    %s", got, orig)
	}
	if got.Attrs[0].Name != "x:y" || got.Attrs[1].Value != "a\rb\tc\nd &<>\"" {
		t.Fatalf("attributes %q", got.Attrs)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestUnmarshalSlabsClipped: decoded child and attribute lists share their
// slabs, so growing one must copy it out rather than overwrite the next
// node's entries.
func TestUnmarshalSlabsClipped(t *testing.T) {
	got, err := UnmarshalElement(Marshal(sample()))
	if err != nil {
		t.Fatal(err)
	}
	edu := got.Children[0]
	date := edu.Children[0]
	edu.SetAttr("extra", "1")
	edu.AppendChild(dom.NewElement("late"))
	want := dom.Elem("date", []string{"val", "June 1996"},
		dom.Elem("institution", []string{"val", "UC Davis"}),
		dom.Elem("degree", []string{"val", "B.S."}),
	)
	if !date.Equal(want) {
		t.Fatalf("neighbour overwritten: %s", date)
	}
	if len(got.Children) != 1 || got.Children[0] != edu {
		t.Fatalf("root children: %s", got)
	}
}

func TestUnmarshalKeepsTextAndComments(t *testing.T) {
	src := Marshal(dom.Elem("r", nil, dom.NewComment("c"), dom.NewText("hello"), dom.Elem("e", []string{"val", "x"})))
	r, err := UnmarshalElement(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Children) != 3 {
		t.Fatalf("children = %d: %s", len(r.Children), r.String())
	}
	if r.Children[0].Type != dom.CommentNode || r.Children[1].Text != "hello" {
		t.Fatalf("structure: %s", r.String())
	}
}

// randomXMLTree builds trees with concept-like names and val attributes.
func randomXMLTree(r *rand.Rand, budget int) *dom.Node {
	tags := []string{"resume", "education", "degree", "date", "skills", "contact"}
	vals := []string{"", "UC Davis", "a & b", `quote " inside`, "<tag>", "June 1996"}
	root := dom.NewElement("root")
	nodes := []*dom.Node{root}
	for i := 0; i < budget; i++ {
		p := nodes[r.Intn(len(nodes))]
		c := dom.NewElement(tags[r.Intn(len(tags))])
		if v := vals[r.Intn(len(vals))]; v != "" {
			c.SetVal(v)
		}
		if r.Intn(5) == 0 {
			c.AppendChild(dom.NewText(vals[1+r.Intn(len(vals)-1)]))
		}
		p.AppendChild(c)
		nodes = append(nodes, c)
	}
	return root
}

func TestPropertyMarshalRoundTrip(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		r := rand.New(rand.NewSource(seed))
		orig := randomXMLTree(r, int(size%40))
		parsed, err := UnmarshalElement(Marshal(orig))
		if err != nil {
			return false
		}
		return orig.Equal(parsed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMarshal(b *testing.B) {
	n := randomXMLTree(rand.New(rand.NewSource(1)), 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Marshal(n)
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	src := Marshal(randomXMLTree(rand.New(rand.NewSource(1)), 100))
	b.ReportAllocs()
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		if _, err := UnmarshalElement(src); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMarshalAllocs pins the pooled-buffer serialization path: once the
// pool is warm, marshalling allocates only the returned string (plus
// occasional pool churn under GC pressure).
func TestMarshalAllocs(t *testing.T) {
	n := sample()
	Marshal(n) // warm the pool
	allocs := testing.AllocsPerRun(100, func() {
		_ = Marshal(n)
	})
	if allocs > 2 {
		t.Errorf("Marshal: %v allocs/run, want <= 2", allocs)
	}
}

// TestUnmarshalAllocs pins the decoder's allocations: the node, child and
// attribute slabs, and nothing per node. Each text or value with a
// reference would add its copy; sample() has none.
func TestUnmarshalAllocs(t *testing.T) {
	src := Marshal(sample())
	UnmarshalElement(src) // warm the pool
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := UnmarshalElement(src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("UnmarshalElement: %v allocs/run, want <= 4", allocs)
	}
}
