package mapping

import (
	"math/rand"
	"testing"
	"testing/quick"

	"webrev/internal/dom"
	"webrev/internal/dtd"
	"webrev/internal/schema"
)

func el(tag string, children ...*dom.Node) *dom.Node {
	return dom.Elem(tag, nil, children...)
}

func TestTreeDistanceIdentity(t *testing.T) {
	a := el("resume", el("contact"), el("education", el("degree"), el("date")))
	if d := TreeDistance(a, a.Clone()); d != 0 {
		t.Fatalf("identity distance = %v", d)
	}
}

func TestTreeDistanceSingleOps(t *testing.T) {
	base := el("resume", el("contact"), el("education"))
	// One rename.
	ren := el("resume", el("contact"), el("experience"))
	if d := TreeDistance(base, ren); d != 1 {
		t.Fatalf("rename distance = %v", d)
	}
	// One insert.
	ins := el("resume", el("contact"), el("education"), el("skills"))
	if d := TreeDistance(base, ins); d != 1 {
		t.Fatalf("insert distance = %v", d)
	}
	// One delete.
	del := el("resume", el("contact"))
	if d := TreeDistance(base, del); d != 1 {
		t.Fatalf("delete distance = %v", d)
	}
}

func TestTreeDistanceNested(t *testing.T) {
	a := el("resume", el("education", el("degree"), el("date")))
	b := el("resume", el("education", el("degree")))
	if d := TreeDistance(a, b); d != 1 {
		t.Fatalf("distance = %v", d)
	}
	// Known textbook case: swapping structure costs more.
	c := el("resume", el("degree", el("education"), el("date")))
	if d := TreeDistance(a, c); d != 2 {
		t.Fatalf("swap distance = %v, want 2 (two renames)", d)
	}
}

func TestTreeDistanceTextNodes(t *testing.T) {
	a := el("x")
	a.AppendChild(dom.NewText("hello"))
	b := el("x")
	b.AppendChild(dom.NewText("world"))
	if d := TreeDistance(a, b); d != 1 {
		t.Fatalf("text rename distance = %v", d)
	}
}

func randTree(r *rand.Rand, maxNodes int) *dom.Node {
	tags := []string{"a", "b", "c"}
	root := el("root")
	nodes := []*dom.Node{root}
	for i := 0; i < r.Intn(maxNodes); i++ {
		p := nodes[r.Intn(len(nodes))]
		c := el(tags[r.Intn(len(tags))])
		p.AppendChild(c)
		nodes = append(nodes, c)
	}
	return root
}

func TestPropertyDistanceMetricAxioms(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randTree(r, 10), randTree(r, 10), randTree(r, 10)
		dab := TreeDistance(a, b)
		dba := TreeDistance(b, a)
		if dab != dba { // symmetry under unit costs
			return false
		}
		if TreeDistance(a, a) != 0 { // identity
			return false
		}
		dac := TreeDistance(a, c)
		dbc := TreeDistance(b, c)
		return dac <= dab+dbc+1e-9 // triangle inequality
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// resumeDTD builds a small DTD for conformance tests:
// resume ((#PCDATA), contact, education+); education ((#PCDATA), degree, date).
func resumeDTD(t *testing.T) *dtd.DTD {
	t.Helper()
	mk := func() *schema.DocPaths {
		return schema.Extract(el("resume",
			el("contact"),
			el("education", el("degree"), el("date")),
			el("education", el("degree"), el("date")),
			el("education", el("degree"), el("date")),
		))
	}
	s := (&schema.Miner{SupThreshold: 0.5}).Discover([]*schema.DocPaths{mk(), mk()})
	return dtd.FromSchema(s, dtd.Options{})
}

func TestConformAlreadyValid(t *testing.T) {
	d := resumeDTD(t)
	doc := el("resume", el("contact"), el("education", el("degree"), el("date")))
	out, stats := Conform(doc, d)
	if stats.Cost() != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if !d.Conforms(out) {
		t.Fatalf("output invalid: %v", d.Validate(out))
	}
	if !doc.Equal(out) {
		t.Fatal("no-op conform should preserve the document")
	}
}

func TestConformInsertsMissing(t *testing.T) {
	d := resumeDTD(t)
	doc := el("resume", el("education", el("degree"), el("date")))
	out, stats := Conform(doc, d)
	if !d.Conforms(out) {
		t.Fatalf("invalid: %v", d.Validate(out))
	}
	if stats.Inserted != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if out.FindElement("contact") == nil {
		t.Fatal("contact not inserted")
	}
}

func TestConformReorders(t *testing.T) {
	d := resumeDTD(t)
	doc := el("resume", el("education", el("date"), el("degree")), el("contact"))
	out, stats := Conform(doc, d)
	if !d.Conforms(out) {
		t.Fatalf("invalid: %v", d.Validate(out))
	}
	if stats.Reordered < 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if out.Children[0].Tag != "contact" {
		t.Fatalf("order not fixed: %s", out.String())
	}
}

func TestConformDeletesAndFoldsVal(t *testing.T) {
	d := resumeDTD(t)
	junk := el("hobby")
	junk.SetVal("sailing")
	doc := el("resume", el("contact"), junk, el("education", el("degree"), el("date")))
	out, stats := Conform(doc, d)
	if !d.Conforms(out) {
		t.Fatalf("invalid: %v", d.Validate(out))
	}
	if stats.Deleted != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if out.Val() != "sailing" {
		t.Fatalf("val lost: %q", out.Val())
	}
}

func TestConformUnwrapsContainers(t *testing.T) {
	d := resumeDTD(t)
	// education buried inside an undeclared wrapper.
	doc := el("resume", el("contact"), el("section", el("education", el("degree"), el("date"))))
	out, stats := Conform(doc, d)
	if !d.Conforms(out) {
		t.Fatalf("invalid: %v", d.Validate(out))
	}
	if stats.Unwrapped != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestConformMergesSurplus(t *testing.T) {
	d := resumeDTD(t)
	c1 := el("contact")
	c1.SetVal("a@x")
	c2 := el("contact")
	c2.SetVal("b@y")
	doc := el("resume", c1, c2, el("education", el("degree"), el("date")))
	out, stats := Conform(doc, d)
	if !d.Conforms(out) {
		t.Fatalf("invalid: %v", d.Validate(out))
	}
	if stats.Merged != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	contact := out.FindElement("contact")
	if contact.Val() != "a@x b@y" {
		t.Fatalf("merged val = %q", contact.Val())
	}
}

func TestConformRenamesRoot(t *testing.T) {
	d := resumeDTD(t)
	doc := el("cv", el("contact"), el("education", el("degree"), el("date")))
	out, stats := Conform(doc, d)
	if out.Tag != "resume" || stats.Renamed != 1 {
		t.Fatalf("root = %s stats = %+v", out.Tag, stats)
	}
}

func TestConformDoesNotMutateInput(t *testing.T) {
	d := resumeDTD(t)
	doc := el("resume", el("education", el("date"), el("degree")))
	snapshot := doc.String()
	Conform(doc, d)
	if doc.String() != snapshot {
		t.Fatal("input mutated")
	}
}

func TestConformDocumentNodeInput(t *testing.T) {
	d := resumeDTD(t)
	docNode := dom.NewDocument()
	docNode.AppendChild(el("resume", el("contact"), el("education", el("degree"), el("date"))))
	out, _ := Conform(docNode, d)
	if !d.Conforms(out) {
		t.Fatalf("invalid: %v", d.Validate(out))
	}
}

func TestPropertyConformAlwaysValidates(t *testing.T) {
	d := resumeDTD(t)
	tags := []string{"resume", "contact", "education", "degree", "date", "junk", "section"}
	f := func(seed int64, size uint8) bool {
		r := rand.New(rand.NewSource(seed))
		root := el("resume")
		nodes := []*dom.Node{root}
		for i := 0; i < int(size%25); i++ {
			p := nodes[r.Intn(len(nodes))]
			c := el(tags[r.Intn(len(tags))])
			if r.Intn(3) == 0 {
				c.SetVal("v")
			}
			p.AppendChild(c)
			nodes = append(nodes, c)
		}
		out, _ := Conform(root, d)
		return d.Conforms(out) && out.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

func TestTreeDistanceLargerStructures(t *testing.T) {
	// Known distance on a deeper pair: move a leaf between parents costs
	// one delete + one insert under unit costs (ordered trees).
	a := el("r", el("p", el("x")), el("q"))
	b := el("r", el("p"), el("q", el("x")))
	if d := TreeDistance(a, b); d != 2 {
		t.Fatalf("move distance = %v, want 2", d)
	}
}

func BenchmarkTreeDistance(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	t1, t2 := randTree(r, 40), randTree(r, 40)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		TreeDistance(t1, t2)
	}
}

// benchConformDoc needs a delete and a reorder at two levels against
// resumeDTD.
func benchConformDoc() *dom.Node {
	return el("resume", el("education", el("date"), el("degree")), el("junk"), el("contact"))
}

func BenchmarkConform(b *testing.B) {
	var tt testing.T
	d := resumeDTD(&tt)
	doc := benchConformDoc()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Conform(doc, d)
	}
}
