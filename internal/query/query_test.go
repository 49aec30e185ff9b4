package query

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"webrev/internal/dom"
	"webrev/internal/pathindex"
	"webrev/internal/schema"
)

func el(tag string, children ...*dom.Node) *dom.Node {
	return dom.Elem(tag, nil, children...)
}

func elv(tag, val string, children ...*dom.Node) *dom.Node {
	n := dom.Elem(tag, []string{"val", val}, children...)
	return n
}

func index() *pathindex.Index {
	return pathindex.Build([]*dom.Node{
		el("resume",
			elv("contact", "a@x"),
			el("education",
				elv("institution", "UC Davis",
					elv("degree", "B.S."),
					elv("date", "June 1996"),
				),
				elv("institution", "Stanford",
					elv("degree", "M.S."),
				),
			),
			el("courses", elv("date", "Fall 1997")),
		),
		el("resume",
			el("education",
				elv("institution", "MIT", elv("degree", "B.S.")),
			),
		),
	})
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		"", "resume", "/", "//", "/resume/", "/resume//",
		"/a[@val~\"x\"", "/a[zzz]", "/a[val=\"x\"]",
	}
	for _, q := range bad {
		if _, err := Compile(q); err == nil {
			t.Errorf("Compile(%q) should fail", q)
		}
	}
}

func TestCompileStructure(t *testing.T) {
	q, err := Compile(`/resume//date[@val~"June"]`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Steps) != 2 || q.Steps[0].Descendant || !q.Steps[1].Descendant {
		t.Fatalf("steps = %+v", q.Steps)
	}
	if q.Pred == nil || !q.Pred.Contains || q.Pred.Value != "June" {
		t.Fatalf("pred = %+v", q.Pred)
	}
	if q.String() != `/resume//date[@val~"June"]` {
		t.Fatalf("String = %q", q.String())
	}
}

func mustEval(t *testing.T, expr string) []pathindex.Ref {
	t.Helper()
	q, err := Compile(expr)
	if err != nil {
		t.Fatal(err)
	}
	return q.Evaluate(index())
}

func TestChildSteps(t *testing.T) {
	if got := mustEval(t, "/resume/education/institution"); len(got) != 3 {
		t.Fatalf("matches = %d", len(got))
	}
	if got := mustEval(t, "/resume/contact"); len(got) != 1 {
		t.Fatalf("matches = %d", len(got))
	}
	if got := mustEval(t, "/resume/institution"); len(got) != 0 {
		t.Fatalf("wrong-level match: %d", len(got))
	}
}

func TestDescendantSteps(t *testing.T) {
	// date appears under institution and under courses.
	if got := mustEval(t, "//date"); len(got) != 2 {
		t.Fatalf("matches = %d", len(got))
	}
	if got := mustEval(t, "/resume//degree"); len(got) != 3 {
		t.Fatalf("matches = %d", len(got))
	}
	if got := mustEval(t, "//resume"); len(got) != 2 {
		t.Fatalf("root via //: %d", len(got))
	}
}

func TestWildcardStep(t *testing.T) {
	// /resume/*/institution: any single level between resume and inst.
	if got := mustEval(t, "/resume/*/institution"); len(got) != 3 {
		t.Fatalf("matches = %d", len(got))
	}
	// doc0 has contact/education/courses, doc1 has education.
	if got := mustEval(t, "/resume/*"); len(got) != 4 {
		t.Fatalf("matches = %d", len(got))
	}
}

func TestPredicates(t *testing.T) {
	if got := mustEval(t, `//degree[@val="B.S."]`); len(got) != 2 {
		t.Fatalf("equality matches = %d", len(got))
	}
	if got := mustEval(t, `//institution[@val~"Davis"]`); len(got) != 1 {
		t.Fatalf("contains matches = %d", len(got))
	}
	if got := mustEval(t, `//date[@val~"June"]`); len(got) != 1 {
		t.Fatalf("matches = %d", len(got))
	}
	if got := mustEval(t, `//degree[@val="Ph.D."]`); len(got) != 0 {
		t.Fatalf("phantom matches = %d", len(got))
	}
}

func TestCount(t *testing.T) {
	q, err := Compile("//institution")
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Count(index()); got != 3 {
		t.Fatalf("count = %d", got)
	}
}

func TestEvaluateReturnsUsableRefs(t *testing.T) {
	refs := mustEval(t, `//institution[@val~"MIT"]`)
	if len(refs) != 1 {
		t.Fatalf("refs = %+v", refs)
	}
	if refs[0].Doc != 1 || refs[0].Node.Val() != "MIT" {
		t.Fatalf("ref = %+v", refs[0])
	}
	// The node is live: navigate to its children.
	if refs[0].Node.FindElement("degree") == nil {
		t.Fatal("ref node lost its subtree")
	}
}

// naiveMatch is one match of the naive evaluation.
type naiveMatch struct {
	path string
	doc  int
	node *dom.Node
}

// naiveEvaluate re-implements query evaluation as a direct tree walk that
// reads each node's val from the tree, used as the oracle for the
// differential property test. It returns the matches in Each's order:
// paths sorted, then document and document order.
func naiveEvaluate(q *Query, docs []*dom.Node) []naiveMatch {
	var out []naiveMatch
	var walk func(doc int, n *dom.Node, path []string)
	walk = func(doc int, n *dom.Node, path []string) {
		if n.Type != dom.ElementNode {
			return
		}
		path = append(path, n.Tag)
		p := schema.Join(path)
		if matchSteps(q.Steps, p) {
			val := n.Val()
			if q.Pred == nil ||
				q.Pred.Contains && strings.Contains(val, q.Pred.Value) ||
				!q.Pred.Contains && val == q.Pred.Value {
				out = append(out, naiveMatch{path: p, doc: doc, node: n})
			}
		}
		for _, c := range n.Children {
			walk(doc, c, path)
		}
	}
	for i, d := range docs {
		walk(i, d, nil)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out
}

func TestPropertyIndexMatchesNaiveWalk(t *testing.T) {
	tags := []string{"resume", "education", "institution", "degree", "date"}
	vals := []string{"x", "1996", "y", "", "\x00", "a\x00b", "é", "日本語 1996"}
	exprs := []string{
		"/resume", "//degree", "/resume/education", "/resume//date",
		"/resume/*/degree", "//institution", `//degree[@val="x"]`,
		`//date[@val~"19"]`, "//*", "/resume//*", "//education//*",
		`//*[@val~""]`, `//degree[@val=""]`, "//*[@val~\"\x00\"]",
		"//date[@val=\"a\x00b\"]", `//*[@val~"é"]`, `/resume//*[@val~"本"]`,
	}
	f := func(seed int64, size uint8) bool {
		r := rand.New(rand.NewSource(seed))
		var docs []*dom.Node
		for d := 0; d < 1+int(size%3); d++ {
			root := el("resume")
			nodes := []*dom.Node{root}
			for i := 0; i < int(size%30); i++ {
				p := nodes[r.Intn(len(nodes))]
				c := el(tags[1+r.Intn(len(tags)-1)])
				if r.Intn(2) == 0 {
					c.SetVal(vals[r.Intn(len(vals))])
				}
				p.AppendChild(c)
				nodes = append(nodes, c)
			}
			docs = append(docs, root)
		}
		ix := pathindex.Build(docs)
		for _, expr := range exprs {
			q, err := Compile(expr)
			if err != nil {
				t.Errorf("Compile(%q): %v", expr, err)
				return false
			}
			want := naiveEvaluate(q, docs)
			i := 0
			ok := true
			q.Each(ix, func(path string, ref pathindex.Ref) bool {
				if i >= len(want) {
					ok = false
					return false
				}
				w := want[i]
				i++
				ok = path == w.path && ref.Doc == w.doc && ref.Node == w.node && ref.Val == w.node.Val()
				return ok
			})
			if !ok || i != len(want) {
				t.Errorf("%s: index matches diverge from the naive walk at match %d of %d", expr, i, len(want))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEvaluateDescendant(b *testing.B) {
	ix := index()
	q, _ := Compile(`//degree[@val="B.S."]`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Evaluate(ix)
	}
}

// syntheticDocs builds n resume-shaped trees of about 30 elements each,
// with vals that vary by document: the shape of a served repository.
func syntheticDocs(n int) []*dom.Node {
	r := rand.New(rand.NewSource(1))
	schools := []string{"UC Davis", "Stanford University", "MIT", "UC Berkeley", "Oxford", "Carnegie Mellon"}
	degrees := []string{"B.S.", "M.S.", "Ph.D.", "B.A.", "M.B.A."}
	months := []string{"January", "March", "June", "September", "Fall", "Spring"}
	date := func() string { return fmt.Sprintf("%s %d", months[r.Intn(len(months))], 1970+r.Intn(50)) }
	docs := make([]*dom.Node, n)
	for i := range docs {
		root := el("resume", elv("contact", fmt.Sprintf("person-%d@example.com", i)))
		edu := el("education")
		for j := 1 + r.Intn(3); j > 0; j-- {
			edu.AppendChild(elv("institution", schools[r.Intn(len(schools))],
				elv("degree", degrees[r.Intn(len(degrees))]),
				elv("date", date()),
			))
		}
		exp := el("experience")
		for j := 2 + r.Intn(4); j > 0; j-- {
			exp.AppendChild(elv("position", fmt.Sprintf("Engineer %d", r.Intn(100)),
				elv("date", date()),
				elv("description", fmt.Sprintf("Built system %d in team %d", r.Intn(1000), r.Intn(50))),
			))
		}
		root.AppendChild(edu)
		root.AppendChild(exp)
		docs[i] = root
	}
	return docs
}

// BenchmarkCountContains is a tail query's count: a contains predicate
// over every date posting of 2,000 documents, answered from a frozen
// index.
func BenchmarkCountContains(b *testing.B) {
	frozen := pathindex.Build(syntheticDocs(2000)).Freeze()
	q, err := Compile(`//date[@val~"1996"]`)
	if err != nil {
		b.Fatal(err)
	}
	want := q.Count(frozen)
	if want == 0 {
		b.Fatal("benchmark query matches nothing")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if q.Count(frozen) != want {
			b.Fatal("count changed between runs")
		}
	}
}
