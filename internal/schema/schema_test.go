package schema

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"webrev/internal/concept"
	"webrev/internal/dom"
)

// el builds an element tree tersely.
func el(tag string, children ...*dom.Node) *dom.Node {
	return dom.Elem(tag, nil, children...)
}

// The three trees of the paper's Figure 2 (reconstructed).
func treeA() *dom.Node {
	return el("resume",
		el("objective"),
		el("contact"),
		el("education", el("degree"), el("date"), el("institution")),
	)
}

func treeB() *dom.Node {
	return el("resume",
		el("contact"),
		el("education", el("degree"), el("date")),
	)
}

func treeC() *dom.Node {
	return el("resume",
		el("education", el("institution"), el("degree"), el("date"), el("date")),
	)
}

func corpus() []*DocPaths {
	return []*DocPaths{Extract(treeA()), Extract(treeB()), Extract(treeC())}
}

func TestExtractPaths(t *testing.T) {
	d := Extract(treeA())
	want := []string{
		"resume",
		"resume/contact",
		"resume/education",
		"resume/education/date",
		"resume/education/degree",
		"resume/education/institution",
		"resume/objective",
	}
	var got []string
	for p := range d.Paths {
		got = append(got, p)
	}
	if sort.Strings(got); !reflect.DeepEqual(got, want) {
		t.Fatalf("paths = %v", got)
	}
	if d.Nodes != 7 {
		t.Fatalf("nodes = %d", d.Nodes)
	}
}

func TestExtractMultiplicity(t *testing.T) {
	d := Extract(treeC())
	if d.Mult["resume/education/date"] != 2 {
		t.Fatalf("date mult = %d", d.Mult["resume/education/date"])
	}
	if d.Mult["resume/education/degree"] != 1 {
		t.Fatalf("degree mult = %d", d.Mult["resume/education/degree"])
	}
	if d.Mult["resume"] != 1 {
		t.Fatalf("root mult = %d", d.Mult["resume"])
	}
}

func TestExtractPositions(t *testing.T) {
	d := Extract(treeA())
	if p, ok := d.AvgPos("resume/objective"); !ok || p != 0 {
		t.Fatalf("objective pos = %v,%v", p, ok)
	}
	if p, _ := d.AvgPos("resume/education"); p != 2 {
		t.Fatalf("education pos = %v", p)
	}
	if _, ok := d.AvgPos("resume/nothere"); ok {
		t.Fatal("missing path should report !ok")
	}
	// Averaged positions: treeC has two dates at positions 2 and 3.
	c := Extract(treeC())
	if p, _ := c.AvgPos("resume/education/date"); p != 2.5 {
		t.Fatalf("date avg pos = %v", p)
	}
}

func TestPathHelpers(t *testing.T) {
	if ParentPath("a/b/c") != "a/b" || ParentPath("a") != "" {
		t.Fatal("ParentPath broken")
	}
	if LastLabel("a/b/c") != "c" || LastLabel("a") != "a" {
		t.Fatal("LastLabel broken")
	}
	if Join(Split("a/b/c")) != "a/b/c" {
		t.Fatal("Join/Split broken")
	}
}

func TestDiscoverSupports(t *testing.T) {
	m := &Miner{SupThreshold: 0.6, RatioThreshold: 0}
	s := m.Discover(corpus())
	if s.Docs != 3 {
		t.Fatalf("docs = %d", s.Docs)
	}
	root := s.Root()
	if root == nil || root.Label != "resume" || root.Support != 1 {
		t.Fatalf("root = %+v", root)
	}
	want := []string{
		"resume",
		"resume/contact",
		"resume/education",
		"resume/education/date",
		"resume/education/degree",
		"resume/education/institution",
	}
	if got := s.Paths(); !reflect.DeepEqual(got, want) {
		t.Fatalf("paths = %v", got)
	}
	if s.Contains("resume/objective") {
		t.Fatal("objective (support 1/3) must not be frequent at 0.6")
	}
	// Exact support values.
	var find func(n *Node, path string) *Node
	find = func(n *Node, path string) *Node {
		if n.Path == path {
			return n
		}
		for _, c := range n.Children {
			if f := find(c, path); f != nil {
				return f
			}
		}
		return nil
	}
	inst := find(root, "resume/education/institution")
	if math.Abs(inst.Support-2.0/3.0) > 1e-9 {
		t.Fatalf("institution support = %v", inst.Support)
	}
	if math.Abs(inst.Ratio-2.0/3.0) > 1e-9 {
		t.Fatalf("institution ratio = %v (education support is 1)", inst.Ratio)
	}
}

func TestDiscoverLowThresholdIsDataGuide(t *testing.T) {
	// supThreshold ~ 0 keeps every path: upper-bound behaviour.
	m := &Miner{SupThreshold: 0.0001, RatioThreshold: 0}
	s := m.Discover(corpus())
	if !s.Contains("resume/objective") {
		t.Fatal("low threshold must include rare paths")
	}
	if got := len(s.Paths()); got != 7 {
		t.Fatalf("paths = %d", got)
	}
}

func TestDiscoverThresholdOneIsLowerBound(t *testing.T) {
	m := &Miner{SupThreshold: 1.0, RatioThreshold: 0}
	s := m.Discover(corpus())
	want := []string{
		"resume",
		"resume/education",
		"resume/education/date",
		"resume/education/degree",
	}
	if got := s.Paths(); !reflect.DeepEqual(got, want) {
		t.Fatalf("paths = %v", got)
	}
}

func TestDiscoverRatioThreshold(t *testing.T) {
	// institution has ratio 2/3 under education; a ratio threshold of 0.7
	// should cut it even at a low support threshold.
	m := &Miner{SupThreshold: 0.1, RatioThreshold: 0.7}
	s := m.Discover(corpus())
	if s.Contains("resume/education/institution") {
		t.Fatal("ratio threshold not applied")
	}
	if !s.Contains("resume/education/degree") {
		t.Fatal("degree (ratio 1) must stay")
	}
}

func TestDiscoverOrderingRule(t *testing.T) {
	m := &Miner{SupThreshold: 0.5, RatioThreshold: 0}
	s := m.Discover(corpus())
	root := s.Root()
	var labels []string
	for _, c := range root.Children {
		labels = append(labels, c.Label)
	}
	// contact precedes education in both docs containing it.
	if got := strings.Join(labels, " "); got != "contact education" {
		t.Fatalf("order = %q", got)
	}
}

func TestDiscoverRepetition(t *testing.T) {
	m := &Miner{SupThreshold: 0.5, RatioThreshold: 0, RepThreshold: 2}
	s := m.Discover(corpus())
	var date *Node
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Path == "resume/education/date" {
			date = n
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(s.Root())
	if date == nil {
		t.Fatal("date missing")
	}
	if math.Abs(date.RepFrac-1.0/3.0) > 1e-9 {
		t.Fatalf("date rep fraction = %v, want 1/3", date.RepFrac)
	}
}

func TestDiscoverEmptyCorpus(t *testing.T) {
	m := &Miner{SupThreshold: 0.5}
	s := m.Discover(nil)
	if s.Root() != nil || s.CountNodes() != 0 {
		t.Fatalf("empty corpus schema = %+v", s)
	}
}

func TestDiscoverConstraintPruning(t *testing.T) {
	set := concept.MustSet(
		concept.Concept{Name: "education", Role: concept.RoleTitle},
		concept.Concept{Name: "contact", Role: concept.RoleTitle},
		concept.Concept{Name: "objective", Role: concept.RoleTitle},
		concept.Concept{Name: "degree", Role: concept.RoleContent},
		concept.Concept{Name: "date", Role: concept.RoleContent},
		concept.Concept{Name: "institution", Role: concept.RoleContent},
	)
	// Poison the corpus with a doc that nests education under education.
	bad := el("resume", el("education", el("education", el("degree"))))
	docs := append(corpus(), Extract(bad), Extract(bad), Extract(bad))
	unconstrained := (&Miner{SupThreshold: 0.4}).Discover(docs)
	if !unconstrained.Contains("resume/education/education") {
		t.Fatal("setup: nested education should be frequent without constraints")
	}
	m := &Miner{SupThreshold: 0.4, Constraints: concept.ResumeConstraints(), Set: set}
	s := m.Discover(docs)
	if s.Contains("resume/education/education") {
		t.Fatal("constraints must prune repeated concept on path")
	}
	if s.Pruned == 0 {
		t.Fatal("pruning not counted")
	}
	if s.Explored >= unconstrained.Explored {
		t.Fatalf("constraints should reduce exploration: %d vs %d", s.Explored, unconstrained.Explored)
	}
}

func TestExploredCountsOnlyNonZeroSupport(t *testing.T) {
	m := &Miner{SupThreshold: 0.5}
	s := m.Discover(corpus())
	// The union trie has exactly 7 paths; nothing else is ever generated.
	if s.Explored != 7 {
		t.Fatalf("explored = %d, want 7", s.Explored)
	}
}

func TestSchemaString(t *testing.T) {
	s := (&Miner{SupThreshold: 0.5}).Discover(corpus())
	out := s.String()
	for _, want := range []string{"resume", "education", "sup=1.00"} {
		if !strings.Contains(out, want) {
			t.Fatalf("String missing %q:\n%s", want, out)
		}
	}
}

func TestPropertySupportAntitoneAndPrefixClosed(t *testing.T) {
	tags := []string{"a", "b", "c", "d"}
	gen := func(r *rand.Rand) *dom.Node {
		root := el("resume")
		nodes := []*dom.Node{root}
		for i := 0; i < 3+r.Intn(12); i++ {
			p := nodes[r.Intn(len(nodes))]
			if p.Depth() > 3 {
				continue
			}
			c := el(tags[r.Intn(len(tags))])
			p.AppendChild(c)
			nodes = append(nodes, c)
		}
		return root
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var docs []*DocPaths
		for i := 0; i < 2+r.Intn(6); i++ {
			docs = append(docs, Extract(gen(r)))
		}
		m := &Miner{SupThreshold: 0.3 + r.Float64()*0.5, RatioThreshold: r.Float64() * 0.5}
		s := m.Discover(docs)
		// Frequent path set must be prefix-closed, and support antitone.
		seen := map[string]float64{}
		var walk func(n *Node) bool
		walk = func(n *Node) bool {
			seen[n.Path] = n.Support
			parent := ParentPath(n.Path)
			if parent != "" {
				ps, ok := seen[parent]
				if !ok || n.Support > ps+1e-12 {
					return false
				}
			}
			for _, c := range n.Children {
				if !walk(c) {
					return false
				}
			}
			return true
		}
		for _, root := range s.Roots {
			if !walk(root) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkExtract(b *testing.B) {
	tr := treeA()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Extract(tr)
	}
}

func BenchmarkDiscover(b *testing.B) {
	docs := corpus()
	for i := 0; i < 100; i++ {
		docs = append(docs, Extract(treeA()), Extract(treeB()), Extract(treeC()))
	}
	m := &Miner{SupThreshold: 0.5, RatioThreshold: 0.1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Discover(docs)
	}
}

func TestExtractChildSeqs(t *testing.T) {
	d := Extract(treeC())
	seqs := d.ChildSeqs["resume/education"]
	if len(seqs) != 1 {
		t.Fatalf("seqs = %v", seqs)
	}
	want := []string{"institution", "degree", "date", "date"}
	if !reflect.DeepEqual(seqs[0], want) {
		t.Fatalf("seq = %v, want %v", seqs[0], want)
	}
	if len(d.ChildSeqs["resume/education/date"]) != 0 {
		t.Fatal("leaf should record no child sequences")
	}
}

func TestMinerAggregatesSeqs(t *testing.T) {
	m := &Miner{SupThreshold: 0.5}
	s := m.Discover(corpus())
	var edu *Node
	for _, c := range s.Root().Children {
		if c.Label == "education" {
			edu = c
		}
	}
	if edu == nil || len(edu.Seqs) != 3 {
		t.Fatalf("education seqs = %+v", edu)
	}
}
