package dtd

import (
	"strings"
	"testing"

	"webrev/internal/dom"
	"webrev/internal/schema"
)

func el(tag string, children ...*dom.Node) *dom.Node {
	return dom.Elem(tag, nil, children...)
}

// corpus yields resumes where education repeats in most documents and
// objective appears in only some.
func corpusDocs() []*schema.DocPaths {
	mk := func(withObjective bool, eduCount int) *schema.DocPaths {
		r := el("resume")
		r.AppendChild(el("contact"))
		if withObjective {
			r.AppendChild(el("objective"))
		}
		for i := 0; i < eduCount; i++ {
			r.AppendChild(el("education", el("institution"), el("degree"), el("date")))
		}
		r.AppendChild(el("skills"))
		return schema.Extract(r)
	}
	return []*schema.DocPaths{
		mk(true, 3), mk(true, 3), mk(false, 4), mk(true, 1), mk(false, 3),
	}
}

func discover(t *testing.T) *schema.Schema {
	t.Helper()
	m := &schema.Miner{SupThreshold: 0.5, RatioThreshold: 0.1}
	return m.Discover(corpusDocs())
}

func TestFromSchemaStructure(t *testing.T) {
	d := FromSchema(discover(t), Options{})
	if d.RootName != "resume" {
		t.Fatalf("root = %q", d.RootName)
	}
	resume := d.Element("resume")
	if resume == nil {
		t.Fatal("resume not declared")
	}
	var names []string
	for _, c := range resume.Children {
		names = append(names, c.Name)
	}
	// Ordering rule: contact before objective? contact is always first;
	// objective second when present; education after; skills last.
	want := "contact objective education skills"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("order = %q, want %q", got, want)
	}
	edu := d.Element("education")
	if edu == nil || len(edu.Children) != 3 {
		t.Fatalf("education decl = %+v", edu)
	}
	for _, leaf := range []string{"institution", "degree", "date", "contact", "skills", "objective"} {
		e := d.Element(leaf)
		if e == nil || !e.IsLeaf() {
			t.Fatalf("%s should be a leaf declaration: %+v", leaf, e)
		}
	}
	if d.Len() != 8 {
		t.Fatalf("element count = %d", d.Len())
	}
}

func TestRepetitionRule(t *testing.T) {
	d := FromSchema(discover(t), Options{})
	resume := d.Element("resume")
	find := func(name string) Child {
		for _, c := range resume.Children {
			if c.Name == name {
				return c
			}
		}
		t.Fatalf("child %s missing", name)
		return Child{}
	}
	// education repeats (≥3 siblings) in 4 of 5 docs -> e+.
	if got := find("education").Repeat; got != Plus {
		t.Fatalf("education repeat = %v, want Plus", got)
	}
	if got := find("contact").Repeat; got != One {
		t.Fatalf("contact repeat = %v, want One", got)
	}
}

func TestOptionalExtension(t *testing.T) {
	// objective appears in 3/5 docs (ratio 0.6); with OptionalBelow 0.9 it
	// becomes optional.
	d := FromSchema(discover(t), Options{OptionalBelow: 0.9})
	resume := d.Element("resume")
	for _, c := range resume.Children {
		if c.Name == "objective" && c.Repeat != Opt {
			t.Fatalf("objective repeat = %v, want Opt", c.Repeat)
		}
		if c.Name == "contact" && c.Repeat == Opt {
			t.Fatalf("contact (ratio 1.0) should not be optional")
		}
	}
}

func TestMergeRepeat(t *testing.T) {
	cases := []struct {
		a, b, want Repeat
	}{
		{One, One, One},
		{One, Plus, Plus},
		{Plus, One, Plus},
		{One, Opt, Opt},
		{Opt, Plus, Star},
		{Star, One, Star},
		{Opt, Opt, Opt},
	}
	for _, c := range cases {
		if got := mergeRepeat(c.a, c.b); got != c.want {
			t.Errorf("mergeRepeat(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestRender(t *testing.T) {
	d := FromSchema(discover(t), Options{})
	out := d.Render()
	if !strings.Contains(out, "<!ELEMENT resume") {
		t.Fatalf("render:\n%s", out)
	}
	if !strings.Contains(out, "education+") {
		t.Fatalf("repetition not rendered:\n%s", out)
	}
	if !strings.Contains(out, "(#PCDATA)>") {
		t.Fatalf("leaf form missing:\n%s", out)
	}
	if !strings.Contains(out, "<!ATTLIST") || !strings.Contains(out, "val CDATA #IMPLIED") {
		t.Fatalf("val attribute declaration missing:\n%s", out)
	}
	elems := d.RenderElements()
	if strings.Contains(elems, "ATTLIST") {
		t.Fatalf("RenderElements should omit ATTLIST:\n%s", elems)
	}
}

func TestRepeatSuffix(t *testing.T) {
	if One.Suffix() != "" || Plus.Suffix() != "+" || Opt.Suffix() != "?" || Star.Suffix() != "*" {
		t.Fatal("Suffix broken")
	}
}

func TestValidateConforming(t *testing.T) {
	d := FromSchema(discover(t), Options{})
	doc := el("resume",
		el("contact"),
		el("objective"),
		el("education", el("institution"), el("degree"), el("date")),
		el("education", el("institution"), el("degree"), el("date")),
		el("skills"),
	)
	if errs := d.Validate(doc); len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if !d.Conforms(doc) {
		t.Fatal("Conforms disagrees with Validate")
	}
}

func TestValidateViolations(t *testing.T) {
	d := FromSchema(discover(t), Options{})
	cases := []struct {
		name string
		doc  *dom.Node
		frag string
	}{
		{"wrong root", el("cv"), "root element"},
		{"missing child", el("resume", el("contact"), el("objective"), el("skills")), "education missing"},
		{"wrong order", el("resume", el("objective"), el("contact"), el("education", el("institution"), el("degree"), el("date")), el("skills")), "occurs"},
		{"undeclared element", el("resume", el("contact"), el("objective"), el("education", el("institution"), el("degree"), el("date"), el("zzz")), el("skills")), "not declared"},
		{"duplicate singleton", el("resume", el("contact"), el("contact"), el("objective"), el("education", el("institution"), el("degree"), el("date")), el("skills")), "exactly 1"},
	}
	for _, c := range cases {
		errs := d.Validate(c.doc)
		if len(errs) == 0 {
			t.Errorf("%s: expected errors", c.name)
			continue
		}
		found := false
		for _, e := range errs {
			if strings.Contains(e.Error(), c.frag) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no error containing %q in %v", c.name, c.frag, errs)
		}
	}
}

func TestValidateTextRootRejected(t *testing.T) {
	d := FromSchema(discover(t), Options{})
	if errs := d.Validate(dom.NewText("x")); len(errs) == 0 {
		t.Fatal("text root should fail validation")
	}
}

func TestEmptySchemaDTD(t *testing.T) {
	d := FromSchema((&schema.Miner{SupThreshold: 0.5}).Discover(nil), Options{})
	if d.Len() != 0 || d.RootName != "" {
		t.Fatalf("empty schema DTD = %+v", d)
	}
}

func TestUnifiedContentModelAcrossContexts(t *testing.T) {
	// date appears under education (repeating) and under courses (single);
	// the unified declaration must use Plus.
	mk := func() *schema.DocPaths {
		return schema.Extract(el("resume",
			el("education", el("date"), el("date"), el("date")),
			el("courses", el("date")),
		))
	}
	docs := []*schema.DocPaths{mk(), mk(), mk()}
	s := (&schema.Miner{SupThreshold: 0.5}).Discover(docs)
	d := FromSchema(s, Options{})
	edu := d.Element("education")
	if edu.Children[0].Repeat != Plus {
		t.Fatalf("education/date repeat = %v", edu.Children[0].Repeat)
	}
	// Content models are per parent element: courses/date never repeats, so
	// the courses declaration keeps date without an indicator even though
	// education/date earned Plus.
	courses := d.Element("courses")
	if courses.Children[0].Repeat != One {
		t.Fatalf("courses/date repeat = %v, want One", courses.Children[0].Repeat)
	}
}

func BenchmarkFromSchema(b *testing.B) {
	s := (&schema.Miner{SupThreshold: 0.5, RatioThreshold: 0.1}).Discover(corpusDocs())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FromSchema(s, Options{})
	}
}

func BenchmarkValidate(b *testing.B) {
	d := FromSchema((&schema.Miner{SupThreshold: 0.5, RatioThreshold: 0.1}).Discover(corpusDocs()), Options{})
	doc := el("resume",
		el("contact"), el("objective"),
		el("education", el("institution"), el("degree"), el("date")),
		el("skills"),
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Validate(doc)
	}
}

// TestCycleDemotion demotes the required edge that closes a cycle of
// required children (a needs b+, b needs a) to optional, so the DTD stays
// finitely satisfiable; the edge into the cycle stays required.
func TestCycleDemotion(t *testing.T) {
	d, err := Parse("<!ELEMENT a ((#PCDATA), b+)>\n<!ELEMENT b ((#PCDATA), a)>")
	if err != nil {
		t.Fatal(err)
	}
	d.demoteRequirementCycles()
	if got := d.Element("a").Children[0].Repeat; got != Plus {
		t.Fatalf("a's b+ became %q, want +", got.Suffix())
	}
	if got := d.Element("b").Children[0].Repeat; got != Opt {
		t.Fatalf("b's cycle-closing a became %q, want ?", got.Suffix())
	}
	if !d.Conforms(el("a", el("b"))) {
		t.Fatalf("finite document rejected: %v", d.Validate(el("a", el("b"))))
	}
}
