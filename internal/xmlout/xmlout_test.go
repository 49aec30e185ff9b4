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
		if _, err := UnmarshalElement(bad); err == nil {
			t.Errorf("UnmarshalElement(%q) should fail", bad)
		}
	}
}

func TestUnmarshalKeepsTextAndComments(t *testing.T) {
	doc, err := Unmarshal(`<r><!--c-->hello<e val="x"/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	r := doc.FindElement("r")
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
		if _, err := Unmarshal(src); err != nil {
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
