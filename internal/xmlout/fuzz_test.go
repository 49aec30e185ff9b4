package xmlout

import (
	"encoding/xml"
	"io"
	"os"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"

	"webrev/internal/concept"
	"webrev/internal/convert"
	"webrev/internal/corpus"
	"webrev/internal/dom"
)

// leakShapes are the stored forms of three converter leaks, since closed:
// an HTML attribute named "!" kept on a concept element, a control byte
// and a non-character reaching a val. None is an XML document, so the
// decoder must reject each, as encoding/xml does.
var leakShapes = []string{
	xmlHeader + "<resume>\n  <education !=\"\"/>\n</resume>\n",
	xmlHeader + "<resume val=\"a\x01b\"/>\n",
	xmlHeader + "<resume val=\"a\uFFFEb\"/>\n",
}

// storedSeeds returns the golden corpus's stored bytes: each converted
// document as a build's conv/ store holds it, and each conformed document
// of the committed golden output as the final store holds it.
func storedSeeds(tb testing.TB) []string {
	var out []string
	c := convert.New(concept.ResumeSet(), convert.Options{RootName: "resume", Constraints: concept.ResumeConstraints()})
	for _, r := range corpus.New(corpus.Options{Seed: 99}).Corpus(12) {
		root, _ := c.Convert(r.HTML)
		out = append(out, Marshal(root))
	}
	golden, err := os.ReadFile("../../testdata/golden/conformed.xml")
	if err != nil {
		tb.Fatal(err)
	}
	// The golden file holds "<!-- name -->\n" + Marshal(doc) + "\n" per
	// document, and a canonical document holds no blank line.
	for rest := string(golden); ; {
		i := strings.Index(rest, xmlHeader)
		if i < 0 {
			break
		}
		rest = rest[i:]
		end := strings.Index(rest, "\n\n")
		out = append(out, rest[:end+1])
		rest = rest[end+2:]
	}
	if len(out) != 24 {
		tb.Fatalf("%d stored seeds, want 24", len(out))
	}
	return out
}

// FuzzCanonicalXML holds the decoder to its contract on arbitrary input:
//   - every accepted b satisfies Marshal(UnmarshalElement(b)) == b;
//   - encoding/xml accepts every accepted b whose names are ASCII, and
//     decodes it to the same tree when no name has a prefix and no CR
//     occurs (the two places the old decoder rewrote);
//   - Marshal writes what the decoder accepts: for the tree t that
//     fuzzTree builds from b, UnmarshalElement(Marshal(t)) re-marshals to
//     Marshal(t), and equals t when Marshal wrote t faithfully.
func FuzzCanonicalXML(f *testing.F) {
	for _, s := range storedSeeds(f) {
		f.Add(s)
	}
	for _, s := range leakShapes {
		f.Add(s)
	}
	f.Add(Marshal(sample()))
	f.Add(Marshal(mixed()))
	f.Fuzz(func(t *testing.T, b string) {
		if root, err := UnmarshalElement(b); err == nil {
			if got := Marshal(root); got != b {
				t.Fatalf("accepted input does not re-marshal to itself:\n%q\n%q", b, got)
			}
			if err := root.Validate(); err != nil {
				t.Fatal(err)
			}
			all := names(root, nil)
			nonASCII := func(s string) bool { return strings.IndexFunc(s, func(r rune) bool { return r >= utf8.RuneSelf }) >= 0 }
			prefixed := func(s string) bool { return strings.Contains(s, ":") }
			if !slices.ContainsFunc(all, nonASCII) {
				ref, err := oracleUnmarshal(b)
				if err != nil {
					t.Fatalf("encoding/xml rejects accepted input %q: %v", b, err)
				}
				if !strings.Contains(b, "\r") && !slices.ContainsFunc(all, prefixed) && !ref.Equal(root) {
					t.Fatalf("decoded %s\nencoding/xml %s", root, ref)
				}
			}
		}
		tree, faithful := fuzzTree(b)
		out := Marshal(tree)
		got, err := UnmarshalElement(out)
		if err != nil {
			t.Fatalf("Marshal output %q does not decode: %v", out, err)
		}
		if again := Marshal(got); again != out {
			t.Fatalf("Marshal output %q re-marshals to %q", out, again)
		}
		if faithful && !tree.Equal(got) {
			t.Fatalf("round trip\n%s\nwant\n%s", got, tree)
		}
	})
}

// Alphabets of fuzzTree: names mix ASCII with a prefix colon and a
// non-ASCII letter; values mix everything an escaper touches with a CR,
// a dash, U+FFFD and plain letters.
var (
	nameStarts = []string{"a", "b", "_", ":", "é"}
	nameRest   = []string{"a", "b", "1", "-", ".", ":", "é"}
	valueParts = []string{"a", "b", " ", "-", "&", "<", ">", `"`, "\t", "\n", "\r", "\uFFFD", "é"}
)

// fuzzTree builds a tree by reading b as a program, one byte per choice.
// Names are XML Names with at most one colon and attribute names do not
// repeat, so Marshal writes every tree as XML. It reports whether Marshal
// writes the tree faithfully: not when the tree has a blank text, a
// doctype below the root, or a comment that Marshal rewrites (one holding
// "--" or ending in '-'). Texts are trimmed and never adjacent.
func fuzzTree(b string) (root *dom.Node, faithful bool) {
	next := func() int {
		if b == "" {
			return 0
		}
		c := b[0]
		b = b[1:]
		return int(c)
	}
	name := func() string {
		s := nameStarts[next()%len(nameStarts)]
		for n := next() % 4; n > 0; n-- {
			c := nameRest[next()%len(nameRest)]
			if c == ":" && strings.Contains(s, ":") {
				c = "a"
			}
			s += c
		}
		return s
	}
	value := func() string {
		var s strings.Builder
		for n := next() % 6; n > 0; n-- {
			s.WriteString(valueParts[next()%len(valueParts)])
		}
		return s.String()
	}
	root, faithful = dom.NewElement(name()), true
	open := []*dom.Node{root}
	for steps := 0; b != "" && steps < 64; steps++ {
		top := open[len(open)-1]
		switch op := next() % 8; op {
		case 0, 1:
			el := dom.NewElement(name())
			for n := next() % 3; n > 0; n-- {
				el.SetAttr(name(), value())
			}
			top.AppendChild(el)
			if op == 0 {
				open = append(open, el)
			}
		case 2:
			last := len(top.Children) - 1
			if t := strings.TrimSpace(value()); t != "" && (last < 0 || top.Children[last].Type != dom.TextNode) {
				top.AppendChild(dom.NewText(t))
			}
		case 3:
			c := value()
			faithful = faithful && !strings.Contains(c, "--") && !strings.HasSuffix(c, "-")
			top.AppendChild(dom.NewComment(c))
		case 4:
			top.AppendChild(dom.NewText([]string{"", " ", "\n  ", "\t"}[next()%4]))
			faithful = false
		case 5:
			top.AppendChild(&dom.Node{Type: dom.DoctypeNode, Text: "a"})
			faithful = false
		default:
			if len(open) > 1 {
				open = open[:len(open)-1]
			}
		}
	}
	return root, faithful
}

// names appends every element and attribute name of the tree to out.
func names(n *dom.Node, out []string) []string {
	if n.Type == dom.ElementNode {
		out = append(out, n.Tag)
	}
	for _, a := range n.Attrs {
		out = append(out, a.Name)
	}
	for _, c := range n.Children {
		out = names(c, out)
	}
	return out
}

// oracleUnmarshal is the store decoder before the canonical one, kept as
// a reference: encoding/xml's tokens, with names stripped of their prefix,
// text trimmed and comments verbatim.
func oracleUnmarshal(src string) (*dom.Node, error) {
	dec := xml.NewDecoder(strings.NewReader(src))
	doc := dom.NewDocument()
	cur := doc
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			el := dom.NewElement(t.Name.Local)
			for _, a := range t.Attr {
				el.SetAttr(a.Name.Local, a.Value)
			}
			cur.AppendChild(el)
			cur = el
		case xml.EndElement:
			cur = cur.Parent
		case xml.CharData:
			if txt := strings.TrimSpace(string(t)); txt != "" {
				cur.AppendChild(dom.NewText(txt))
			}
		case xml.Comment:
			cur.AppendChild(dom.NewComment(string(t)))
		}
	}
	root := doc.Find(func(n *dom.Node) bool { return n.Type == dom.ElementNode })
	if root == nil {
		return nil, io.ErrUnexpectedEOF
	}
	root.Detach()
	return root, nil
}
