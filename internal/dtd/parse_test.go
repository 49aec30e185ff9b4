package dtd

import (
	"reflect"
	"strings"
	"testing"

	"webrev/internal/schema"
)

func TestParseRenderRoundTrip(t *testing.T) {
	d := FromSchema(discover(t), Options{})
	parsed, err := Parse(d.Render())
	if err != nil {
		t.Fatal(err)
	}
	if parsed.RootName != d.RootName || parsed.Len() != d.Len() {
		t.Fatalf("round trip: root %q/%q, len %d/%d",
			parsed.RootName, d.RootName, parsed.Len(), d.Len())
	}
	for _, orig := range d.Elements {
		got := parsed.Element(orig.Name)
		if got == nil {
			t.Fatalf("element %q lost", orig.Name)
		}
		if len(got.Children) != len(orig.Children) {
			t.Fatalf("%q children %d/%d", orig.Name, len(got.Children), len(orig.Children))
		}
		for i := range orig.Children {
			if !reflect.DeepEqual(got.Children[i], orig.Children[i]) {
				t.Fatalf("%q child %d: %+v != %+v", orig.Name, i, got.Children[i], orig.Children[i])
			}
		}
	}
	// The parsed DTD validates the same documents.
	doc := el("resume",
		el("contact"), el("objective"),
		el("education", el("institution"), el("degree"), el("date")),
		el("skills"),
	)
	if parsed.Conforms(doc) != d.Conforms(doc) {
		t.Fatal("parsed DTD validates differently")
	}
}

func TestParseAllRepeats(t *testing.T) {
	src := `<!ELEMENT root ((#PCDATA), a, b+, c?, d*)>
<!ELEMENT a (#PCDATA)>
<!ELEMENT b (#PCDATA)>
<!ELEMENT c (#PCDATA)>
<!ELEMENT d (#PCDATA)>`
	d, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	root := d.Element("root")
	want := []Child{
		{Name: "a", Repeat: One},
		{Name: "b", Repeat: Plus},
		{Name: "c", Repeat: Opt},
		{Name: "d", Repeat: Star},
	}
	for i, w := range want {
		if !reflect.DeepEqual(root.Children[i], w) {
			t.Fatalf("child %d = %+v, want %+v", i, root.Children[i], w)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`<!ELEMENT a`,                 // unterminated
		`<!ELEMENT a>`,                // no model
		`<!ELEMENT a (b, c)>`,         // unsupported model (no PCDATA)
		`<!ELEMENT a ((#PCDATA), b)>`, // undeclared child
		`<!WRONG a (#PCDATA)>`,        // unknown declaration
		"<!ELEMENT a (#PCDATA)>\n<!ELEMENT a (#PCDATA)>",           // duplicate
		`<!ELEMENT a ((#PCDATA), +)>` + "\n<!ELEMENT b (#PCDATA)>", // empty child name
		`<!ATTLIST a val CDATA #IMPLIED`,                           // unterminated attlist
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseIgnoresCommentsAndBlanks(t *testing.T) {
	src := `
<!-- derived by webrev -->

<!ELEMENT r ((#PCDATA), x)>
<!ATTLIST r val CDATA #IMPLIED>
<!ELEMENT x (#PCDATA)>
`
	d, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if d.RootName != "r" || d.Len() != 2 {
		t.Fatalf("parsed: %+v", d)
	}
}

func TestParseEmptyText(t *testing.T) {
	d, err := Parse("")
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 0 || d.RootName != "" {
		t.Fatalf("empty parse: %+v", d)
	}
}

func TestParsePreservesValidationBehaviour(t *testing.T) {
	// A DTD assembled from schema discovery, rendered, parsed, and used for
	// validation must reject what the original rejects.
	mk := func() *schema.DocPaths {
		// Three b siblings: at or above the repetition threshold of 3.
		return schema.Extract(el("r", el("a"), el("b"), el("b"), el("b")))
	}
	s := (&schema.Miner{SupThreshold: 0.5}).Discover([]*schema.DocPaths{mk(), mk()})
	orig := FromSchema(s, Options{})
	parsed, err := Parse(orig.Render())
	if err != nil {
		t.Fatal(err)
	}
	good := el("r", el("a"), el("b"))
	bad := el("r", el("b"), el("a"))
	if !parsed.Conforms(good) {
		t.Fatalf("good doc rejected: %v", parsed.Validate(good))
	}
	if parsed.Conforms(bad) {
		t.Fatal("bad doc accepted")
	}
	if !strings.Contains(parsed.Render(), "b+") {
		t.Fatalf("repetition lost:\n%s", parsed.Render())
	}
}

// TestParseGroupErrors rejects every parenthesized group particle, with an
// error naming it: a content model holds named children only, as Render
// writes it.
func TestParseGroupErrors(t *testing.T) {
	decls := "\n<!ELEMENT a (#PCDATA)>\n<!ELEMENT b (#PCDATA)>"
	cases := []struct{ src, group string }{
		{"<!ELEMENT r ((#PCDATA), (a, b)+)>" + decls, "(a, b)+"},
		{"<!ELEMENT r ((#PCDATA), a, (a, b))>" + decls, "(a, b)"},
		{"<!ELEMENT r ((#PCDATA), (a, (b))*)>" + decls, "(a, (b))*"},
		{"<!ELEMENT r ((#PCDATA), ()+)>", "()+"},
		{"<!ELEMENT r ((#PCDATA), a(b)?)>" + decls, "a(b)?"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("Parse(%q) should fail", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.group) {
			t.Errorf("Parse(%q) error %q does not name %s", c.src, err, c.group)
		}
	}
}
