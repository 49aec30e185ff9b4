package convert

import (
	"reflect"
	"strings"
	"testing"

	"webrev/internal/bayes"
	"webrev/internal/concept"
	"webrev/internal/dom"
)

func testSet() *concept.Set {
	return concept.MustSet(
		concept.Concept{Name: "education", Role: concept.RoleTitle, Instances: []string{"educational background"}},
		concept.Concept{Name: "experience", Role: concept.RoleTitle, Instances: []string{"work experience", "employment"}},
		concept.Concept{Name: "skills", Role: concept.RoleTitle, Instances: []string{"technical skills"}},
		concept.Concept{Name: "institution", Role: concept.RoleContent, Instances: []string{"University", "College"}},
		concept.Concept{Name: "degree", Role: concept.RoleContent, Instances: []string{"B.S.", "M.S.", "Ph.D."}},
		concept.Concept{Name: "date", Role: concept.RoleContent, Instances: []string{"June", "January", "September"}},
		concept.Concept{Name: "gpa", Role: concept.RoleContent, Instances: []string{"GPA"}},
		concept.Concept{Name: "company", Role: concept.RoleContent, Instances: []string{"Inc", "Corp"}},
	)
}

func newConv() *Converter {
	return New(testSet(), Options{RootName: "resume"})
}

// xmlShape renders element structure ignoring val attributes.
func xmlShape(n *dom.Node) string {
	var b strings.Builder
	var walk func(*dom.Node)
	walk = func(m *dom.Node) {
		b.WriteString("(" + m.Tag)
		for _, c := range m.Children {
			walk(c)
		}
		b.WriteString(")")
	}
	walk(n)
	return b.String()
}

func TestTokenize(t *testing.T) {
	c := newConv()
	got := c.Tokenize("University of California at Davis, B.S.(Computer Science), June 1996, GPA 3.8/4.0")
	want := []string{"University of California at Davis", "B.S.(Computer Science)", "June 1996", "GPA 3.8/4.0"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %#v", got)
	}
	if got := c.Tokenize(" ;; , "); got != nil {
		t.Fatalf("empty tokens should be dropped: %#v", got)
	}
	if got := c.Tokenize("no delimiters here"); len(got) != 1 {
		t.Fatalf("single token expected: %#v", got)
	}
	// A control byte XML cannot carry splits like a delimiter; tab and
	// newline stay whitespace.
	if got, want := c.Tokenize("MIT\x01B.S.\x00, June\t1999\n"), []string{"MIT", "B.S.", "June\t1999"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize with control bytes = %#v, want %#v", got, want)
	}
}

func TestPaperTopicSentence(t *testing.T) {
	// §2.3.1: the topic sentence yields four sibling elements.
	c := newConv()
	root, stats := c.Convert(`<body><p>University of California at Davis, B.S.(Computer Science), June 1996, GPA 3.8/4.0</p></body>`)
	var tags []string
	for _, ch := range root.Children {
		tags = append(tags, ch.Tag)
	}
	// p is a lone group tag with nothing to group; consolidation folds it.
	// The four concepts surface as siblings (the first becomes head when p
	// folds via first-child replacement; institution adopts the rest).
	all := root.FindAll(func(n *dom.Node) bool { return n.Type == dom.ElementNode })
	var names []string
	for _, n := range all {
		names = append(names, n.Tag)
	}
	joined := strings.Join(names, " ")
	for _, want := range []string{"institution", "degree", "date", "gpa"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("missing %s in %s (shape %s)", want, joined, xmlShape(root))
		}
	}
	if stats.Tokens != 4 || stats.IdentifiedTokens != 4 {
		t.Fatalf("stats = %+v", stats)
	}
	inst := root.FindElement("institution")
	if inst.Val() != "University of California at Davis" {
		t.Fatalf("institution val = %q", inst.Val())
	}
}

func TestInstanceRuleUnidentifiedPassesToParent(t *testing.T) {
	c := newConv()
	root, stats := c.Convert(`<body><p>totally unrelated text</p></body>`)
	if stats.UnidentifiedTokens != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if root.Val() != "totally unrelated text" {
		t.Fatalf("val lost: root=%s", root.String())
	}
}

func TestInstanceRuleMultipleConceptsInToken(t *testing.T) {
	// No delimiters between instances: token must be decomposed, text before
	// the first instance goes to the parent.
	c := newConv()
	root, _ := c.Convert(`<body><p>prefix University of Davis B.S. Computer Science</p></body>`)
	inst := root.FindElement("institution")
	deg := root.FindElement("degree")
	if inst == nil || deg == nil {
		t.Fatalf("decomposition failed: %s", root.String())
	}
	if inst.Val() != "University of Davis" {
		t.Fatalf("institution val = %q", inst.Val())
	}
	if deg.Val() != "B.S. Computer Science" {
		t.Fatalf("degree val = %q", deg.Val())
	}
	if !strings.Contains(root.Val(), "prefix") {
		t.Fatalf("prefix text lost: root val = %q", root.Val())
	}
}

func TestGroupingRuleSinksSections(t *testing.T) {
	// Two h2 sections: content between them must sink under the first.
	c := newConv()
	src := `<body>
<h2>Education</h2>
<p>University of California, B.S., June 1996</p>
<h2>Work Experience</h2>
<p>Acme Inc, January 1998</p>
</body>`
	root, _ := c.Convert(src)
	edu := root.FindElement("education")
	exp := root.FindElement("experience")
	if edu == nil || exp == nil {
		t.Fatalf("sections missing: %s", xmlShape(root))
	}
	if edu.FindElement("institution") == nil || edu.FindElement("degree") == nil || edu.FindElement("date") == nil {
		t.Fatalf("education children wrong: %s", edu.String())
	}
	if exp.FindElement("company") == nil {
		t.Fatalf("experience children wrong: %s", exp.String())
	}
	if edu.FindElement("company") != nil {
		t.Fatalf("company leaked into education: %s", edu.String())
	}
}

func TestPaperFigure1Consolidation(t *testing.T) {
	// Figure 1: <h2>EDUCATION <ul> (GROUP DATE INST DEGREE)(GROUP DATE INST
	// DEGREE) -> EDUCATION with DATE children each holding INST+DEGREE.
	c := newConv()
	src := `<body><h2>Education</h2><ul>` +
		`<li>June 1996; University of California; B.S.</li>` +
		`<li>September 1998; Stanford University; M.S.</li>` +
		`</ul></body>`
	root, _ := c.Convert(src)
	edu := root.FindElement("education")
	if edu == nil {
		t.Fatalf("no education: %s", xmlShape(root))
	}
	dates := edu.FindElements("date")
	if len(dates) != 2 {
		t.Fatalf("dates = %d: %s", len(dates), xmlShape(edu))
	}
	for _, d := range dates {
		if d.FindElement("institution") == nil || d.FindElement("degree") == nil {
			t.Fatalf("date entry lacks inst/degree: %s", d.String())
		}
	}
}

func TestConsolidationUniformChildrenPushUp(t *testing.T) {
	// A ul whose li-entries each reduce to the same concept: the ul node
	// must disappear, keeping the siblings.
	c := newConv()
	src := `<body><h2>Education</h2><ul><li>June 1996</li><li>January 1997</li><li>September 1998</li></ul></body>`
	root, _ := c.Convert(src)
	edu := root.FindElement("education")
	if edu == nil {
		t.Fatalf("no education: %s", xmlShape(root))
	}
	if got := len(edu.FindElements("date")); got != 3 {
		t.Fatalf("dates = %d: %s", got, edu.String())
	}
	if root.FindElement("ul") != nil || root.FindElement("li") != nil || root.FindElement("GROUP") != nil {
		t.Fatalf("markup survived: %s", xmlShape(root))
	}
}

func TestOnlyConceptElementsRemain(t *testing.T) {
	c := newConv()
	set := testSet()
	src := `<body><h1>John Doe</h1><h2>Education</h2><table><tr><td>University of X</td><td>B.S.</td></tr>
<tr><td>College of Y</td><td>M.S.</td></tr></table><h2>Skills</h2><p>Java, C++</p><hr><center>thanks</center></body>`
	root, _ := c.Convert(src)
	var bad []string
	root.Walk(func(n *dom.Node) bool {
		if n.Type == dom.ElementNode && n != root && !set.Has(n.Tag) {
			bad = append(bad, n.Tag)
		}
		return true
	})
	if len(bad) > 0 {
		t.Fatalf("non-concept elements remain: %v in %s", bad, xmlShape(root))
	}
	if err := root.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNoInformationLoss(t *testing.T) {
	c := newConv()
	src := `<body><h2>Education</h2><p>University of California, B.S., June 1996, GPA 3.8, random remark</p>
<p>stray paragraph with no concepts at all</p></body>`
	root, _ := c.Convert(src)
	text := strings.Join(root.AllText(), " ")
	for _, frag := range []string{"University of California", "B.S.", "June 1996", "GPA 3.8", "random remark", "stray paragraph with no concepts at all"} {
		if !strings.Contains(text, frag) {
			t.Fatalf("lost %q; have %q", frag, text)
		}
	}
}

func TestBayesFallback(t *testing.T) {
	cls := bayes.New()
	cls.Train("Foothill Community", "institution")
	cls.Train("Evergreen Community", "institution")
	cls.Train("random words here", "education")
	c := New(testSet(), Options{RootName: "resume", Classifier: cls})
	root, stats := c.Convert(`<body><p>Foothill Community of Anywhere</p></body>`)
	if root.FindElement("institution") == nil {
		t.Fatalf("classifier fallback failed: %s (stats %+v)", root.String(), stats)
	}
	if stats.IdentifiedTokens != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestConstraintsPreferTitleHead(t *testing.T) {
	// Without role constraints the first concept child heads the section;
	// with them, a title concept is preferred even when not first.
	set := testSet()
	src := `<body><h2>June 1996 Education</h2><p>University of X</p></body>`
	plain := New(set, Options{RootName: "resume"})
	r1, _ := plain.Convert(src)
	cons := New(set, Options{RootName: "resume", Constraints: concept.ResumeConstraints()})
	r2, _ := cons.Convert(src)
	// In the constrained run education must dominate date.
	edu := r2.FindElement("education")
	if edu == nil {
		t.Fatalf("education missing: %s", xmlShape(r2))
	}
	if e := r2.FindElement("date"); e != nil && e.FindElement("education") != nil {
		t.Fatalf("date dominates education despite constraints: %s", xmlShape(r2))
	}
	_ = r1 // plain variant exercised for coverage of the default path
}

func TestStatsRatioAndCounts(t *testing.T) {
	c := newConv()
	_, stats := c.Convert(`<body><p>University, nonsense, B.S.</p></body>`)
	if stats.Tokens != 3 || stats.IdentifiedTokens != 2 || stats.UnidentifiedTokens != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if r := stats.IdentifiedRatio(); r < 0.66 || r > 0.67 {
		t.Fatalf("ratio = %v", r)
	}
	var zero Stats
	if zero.IdentifiedRatio() != 0 {
		t.Fatal("zero stats ratio should be 0")
	}
}

func TestEmptyDocument(t *testing.T) {
	c := newConv()
	root, stats := c.Convert("")
	if root.Tag != "resume" || len(root.Children) != 0 {
		t.Fatalf("root = %s", root.String())
	}
	if stats.Tokens != 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestDefaultsApplied(t *testing.T) {
	c := New(testSet(), Options{})
	if c.opts.RootName != "document" || c.opts.Delimiters == "" {
		t.Fatalf("defaults not applied: %+v", c.opts)
	}
	if len(DefaultGroupTags()) == 0 || !DefaultListTags()["ul"] {
		t.Fatal("default tag sets broken")
	}
	if DefaultGroupTags()["h1"] <= DefaultGroupTags()["p"] {
		t.Fatal("h1 must outrank p (paper §2.3.2)")
	}
}

func TestDeeplyNestedFontMarkup(t *testing.T) {
	c := newConv()
	src := `<body><h2><b><i><u>Education</u></i></b></h2><p><font size="2">University of Z, B.S.</font></p></body>`
	root, _ := c.Convert(src)
	edu := root.FindElement("education")
	if edu == nil {
		t.Fatalf("education not recovered through font markup: %s", xmlShape(root))
	}
	if edu.FindElement("institution") == nil {
		t.Fatalf("institution missing: %s", xmlShape(root))
	}
}

func TestMalformedHTMLStillConverts(t *testing.T) {
	c := newConv()
	src := `<body><h2>Education<p>University of W, B.S.<h2>Employment<p>Acme Inc`
	root, _ := c.Convert(src)
	if root.FindElement("education") == nil || root.FindElement("experience") == nil {
		t.Fatalf("sections missing from tag soup: %s", xmlShape(root))
	}
	if err := root.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSkipGroupingFlattens(t *testing.T) {
	src := `<body><h2>Education</h2><p>University of X, B.S.</p><h2>Employment</h2><p>Acme Inc</p></body>`
	with := New(testSet(), Options{RootName: "resume"})
	r1, _ := with.Convert(src)
	if r1.FindElement("education").FindElement("institution") == nil {
		t.Fatalf("grouping should nest: %s", xmlShape(r1))
	}
	without := New(testSet(), Options{RootName: "resume", SkipGrouping: true})
	r2, _ := without.Convert(src)
	edu := r2.FindElement("education")
	if edu != nil && edu.FindElement("institution") != nil {
		t.Fatalf("grouping disabled but nesting recovered: %s", xmlShape(r2))
	}
	// No information lost either way.
	if len(r2.AllText()) == 0 {
		t.Fatal("text lost without grouping")
	}
}

func BenchmarkConvertResume(b *testing.B) {
	c := New(concept.ResumeSet(), Options{RootName: "resume"})
	src := `<html><body><h1>Jane Doe</h1>
<h2>Objective</h2><p>Seeking a software engineer position</p>
<h2>Education</h2><ul>
<li>University of California at Davis, B.S. Computer Science, June 1996, GPA 3.8/4.0</li>
<li>Stanford University, M.S. Computer Science, June 1998</li></ul>
<h2>Experience</h2>
<p><b>Acme Inc</b>, Software Engineer, January 1998 - present. Developed systems in Java, C++.</p>
<h2>Skills</h2><p>Java, C++, Perl, SQL, Unix</p>
</body></html>`
	b.ReportAllocs()
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		c.Convert(src)
	}
}
