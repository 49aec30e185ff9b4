package pathindex

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"webrev/internal/dom"
	"webrev/internal/schema"
	"webrev/internal/xmlout"
)

func el(tag string, children ...*dom.Node) *dom.Node {
	return dom.Elem(tag, nil, children...)
}

func docs() []*dom.Node {
	return []*dom.Node{
		el("resume",
			el("contact"),
			el("education", el("degree"), el("date")),
		),
		el("resume",
			el("education", el("degree")),
			el("skills"),
		),
	}
}

func TestBuildAndLookup(t *testing.T) {
	ix := Build(docs())
	if ix.Docs() != 2 {
		t.Fatalf("docs = %d", ix.Docs())
	}
	refs := ix.Lookup("resume/education/degree")
	if len(refs) != 2 {
		t.Fatalf("refs = %d", len(refs))
	}
	if refs[0].Doc != 0 || refs[1].Doc != 1 {
		t.Fatalf("doc order: %+v", refs)
	}
	if refs[0].Node.Tag != "degree" {
		t.Fatalf("wrong node: %s", refs[0].Node.Label())
	}
	if len(ix.Lookup("resume/nothere")) != 0 {
		t.Fatal("phantom path")
	}
}

func TestPaths(t *testing.T) {
	ix := Build(docs())
	want := []string{
		"resume",
		"resume/contact",
		"resume/education",
		"resume/education/date",
		"resume/education/degree",
		"resume/skills",
	}
	if got := ix.Paths(); !reflect.DeepEqual(got, want) {
		t.Fatalf("paths = %v", got)
	}
}

func TestPathsEndingIn(t *testing.T) {
	ix := Build([]*dom.Node{
		el("resume", el("education", el("date")), el("courses", el("date"))),
	})
	got := ix.PathsEndingIn("date")
	want := []string{"resume/courses/date", "resume/education/date"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("paths = %v", got)
	}
	if len(ix.PathsEndingIn("zzz")) != 0 {
		t.Fatal("phantom label")
	}
}

func TestDocFrequency(t *testing.T) {
	ix := Build(docs())
	if f := ix.DocFrequency("resume/education/degree"); f != 2 {
		t.Fatalf("freq = %d", f)
	}
	if f := ix.DocFrequency("resume/contact"); f != 1 {
		t.Fatalf("freq = %d", f)
	}
	// Multiple occurrences in one document count once.
	ix2 := Build([]*dom.Node{el("r", el("x"), el("x"), el("x"))})
	if f := ix2.DocFrequency("r/x"); f != 1 {
		t.Fatalf("freq = %d", f)
	}
}

func TestAvgPosition(t *testing.T) {
	ix := Build(docs())
	// education is child 1 in doc0 and child 0 in doc1.
	if p, ok := ix.AvgPosition("resume/education"); !ok || p != 0.5 {
		t.Fatalf("avg pos = %v,%v", p, ok)
	}
	if _, ok := ix.AvgPosition("no/such"); ok {
		t.Fatal("phantom position")
	}
}

func TestNonElementNodesIgnored(t *testing.T) {
	r := el("resume")
	r.AppendChild(dom.NewText("hello"))
	r.AppendChild(el("contact"))
	ix := Build([]*dom.Node{r})
	refs := ix.Lookup("resume/contact")
	if len(refs) != 1 || refs[0].Pos != 0 {
		t.Fatalf("text node should not shift element positions: %+v", refs)
	}
}

// referenceIndex is the recursive walk Build replaced: it joins a path
// string for every element and appends the element's posting to a slice
// per path. The property test compares Build with it.
type referenceIndex struct {
	byPath  map[string][]Ref
	byLabel map[string]map[string]bool
}

func referenceBuild(docs []*dom.Node) *referenceIndex {
	ix := &referenceIndex{byPath: map[string][]Ref{}, byLabel: map[string]map[string]bool{}}
	for i, d := range docs {
		ix.add(i, d, "", 0)
	}
	return ix
}

func (ix *referenceIndex) add(doc int, n *dom.Node, prefix string, pos int) {
	if n.Type != dom.ElementNode {
		return
	}
	path := n.Tag
	if prefix != "" {
		path = prefix + schema.Sep + n.Tag
	}
	ix.byPath[path] = append(ix.byPath[path], Ref{Doc: doc, Node: n, Pos: pos})
	if ix.byLabel[n.Tag] == nil {
		ix.byLabel[n.Tag] = map[string]bool{}
	}
	ix.byLabel[n.Tag][path] = true
	i := 0
	for _, c := range n.Children {
		if c.Type != dom.ElementNode {
			continue
		}
		ix.add(doc, c, path, i)
		i++
	}
}

func (ix *referenceIndex) paths() []string {
	var out []string
	for p := range ix.byPath {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

func (ix *referenceIndex) pathsEndingIn(label string) []string {
	var out []string
	for p := range ix.byLabel[label] {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// docFrequency counts the distinct documents of a path's postings, which
// the walk appends in document order.
func (ix *referenceIndex) docFrequency(path string) int {
	n, last := 0, -1
	for _, r := range ix.byPath[path] {
		if r.Doc != last {
			n++
			last = r.Doc
		}
	}
	return n
}

// avgPosition sums the positions as floats, one posting at a time.
func (ix *referenceIndex) avgPosition(path string) (float64, bool) {
	refs := ix.byPath[path]
	if len(refs) == 0 {
		return 0, false
	}
	sum := 0.0
	for _, r := range refs {
		sum += float64(r.Pos)
	}
	return sum / float64(len(refs)), true
}

// readIndex is what Index and Frozen both answer.
type readIndex interface {
	Docs() int
	Paths() []string
	PathsEndingIn(label string) []string
	Lookup(path string) []Ref
	DocFrequency(path string) int
	AvgPosition(path string) (float64, bool)
}

var (
	randomTags = []string{"resume", "education", "institution", "degree", "date"}
	randomVals = []string{"", "x", "\x00", "a\x00b", "é", "日本語", "June 1996"}
)

// randomDocs draws up to three trees of the random tags, some elements
// with a val (empty, NUL, multi-byte UTF-8), some without, and text nodes
// between elements so that positions must skip them.
func randomDocs(r *rand.Rand) []*dom.Node {
	var docs []*dom.Node
	for d := r.Intn(4); d > 0; d-- {
		root := el(randomTags[r.Intn(2)])
		nodes := []*dom.Node{root}
		for i := r.Intn(40); i > 0; i-- {
			p := nodes[r.Intn(len(nodes))]
			if r.Intn(5) == 0 {
				p.AppendChild(dom.NewText("t"))
				continue
			}
			c := el(randomTags[r.Intn(len(randomTags))])
			if r.Intn(3) != 0 {
				c.SetVal(randomVals[r.Intn(len(randomVals))])
			}
			p.AppendChild(c)
			nodes = append(nodes, c)
		}
		docs = append(docs, root)
	}
	return docs
}

// TestPropertyBuildMatchesReferenceWalk: on random trees, Build and its
// frozen form answer every read exactly as the recursive walk does, and
// each path's postings carry the same documents, positions and nodes in
// the same order, with Val equal to the node's val. The byte path agrees:
// BuildXML over each tree's Marshal output answers as the walk over the
// trees those bytes decode to, with every Node nil.
func TestPropertyBuildMatchesReferenceWalk(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for iter := 0; iter < 300; iter++ {
		docs := randomDocs(r)
		ix := Build(docs)
		want := referenceBuild(docs)
		checkAgainstWalk(t, iter, ix, want, len(docs), true)
		checkAgainstWalk(t, iter, ix.Freeze(), want, len(docs), true)

		// A stored document holds no NUL, which is not an XML character.
		stored := make([]string, len(docs))
		decoded := make([]*dom.Node, len(docs))
		for i, d := range docs {
			d = d.Clone()
			d.Walk(func(n *dom.Node) bool {
				if v, ok := n.Attr(dom.ValAttr); ok {
					n.SetVal(strings.ReplaceAll(v, "\x00", "\uFFFD"))
				}
				return true
			})
			stored[i] = xmlout.Marshal(d)
			var err error
			if decoded[i], err = xmlout.UnmarshalElement(stored[i]); err != nil {
				t.Fatalf("iter %d: document %d: %v", iter, i, err)
			}
		}
		bx, err := BuildXML(stored)
		if err != nil {
			t.Fatalf("iter %d: BuildXML: %v", iter, err)
		}
		want = referenceBuild(decoded)
		checkAgainstWalk(t, iter, bx, want, len(docs), false)
		checkAgainstWalk(t, iter, bx.Freeze(), want, len(docs), false)
	}
}

// checkAgainstWalk compares every read of got, an index of docs
// documents, with the reference walk.
// Postings must hold the walk's nodes when nodes is set, and no node
// otherwise.
func checkAgainstWalk(t *testing.T, iter int, got readIndex, want *referenceIndex, docs int, nodes bool) {
	t.Helper()
	if got.Docs() != docs {
		t.Fatalf("iter %d: Docs = %d; want %d", iter, got.Docs(), docs)
	}
	if g, w := got.Paths(), want.paths(); !equalStrings(g, w) {
		t.Fatalf("iter %d: Paths = %v; want %v", iter, g, w)
	}
	for _, label := range append(randomTags, "zzz") {
		if g, w := got.PathsEndingIn(label), want.pathsEndingIn(label); !equalStrings(g, w) {
			t.Fatalf("iter %d: PathsEndingIn(%s) = %v; want %v", iter, label, g, w)
		}
	}
	for _, p := range append(want.paths(), "no/such") {
		if g, w := got.DocFrequency(p), want.docFrequency(p); g != w {
			t.Fatalf("iter %d: DocFrequency(%s) = %d; want %d", iter, p, g, w)
		}
		gp, gok := got.AvgPosition(p)
		wp, wok := want.avgPosition(p)
		if gp != wp || gok != wok {
			t.Fatalf("iter %d: AvgPosition(%s) = %v,%v; want %v,%v", iter, p, gp, gok, wp, wok)
		}
		g, w := got.Lookup(p), want.byPath[p]
		if len(g) != len(w) {
			t.Fatalf("iter %d: Lookup(%s) has %d postings; want %d", iter, p, len(g), len(w))
		}
		for i := range w {
			wantNode := w[i].Node
			if !nodes {
				wantNode = nil
			}
			if g[i].Doc != w[i].Doc || g[i].Pos != w[i].Pos || g[i].Node != wantNode || g[i].Val != w[i].Node.Val() {
				t.Fatalf("iter %d: Lookup(%s)[%d] = %+v; want %+v with val %q", iter, p, i, g[i], w[i], w[i].Node.Val())
			}
		}
	}
}

// TestBuildXMLRejectsUndecodable: BuildXML fails on the first document
// xmlout does not decode, and names it.
func TestBuildXMLRejectsUndecodable(t *testing.T) {
	good := xmlout.Marshal(el("resume", el("education")))
	if _, err := BuildXML([]string{good, good[1:]}); err == nil || !strings.Contains(err.Error(), "document 1") {
		t.Fatalf("BuildXML over an undecodable document 1: %v", err)
	}
	ix, err := BuildXML(nil)
	if err != nil || ix.Docs() != 0 || len(ix.Paths()) != 0 {
		t.Fatalf("BuildXML(nil) = %v docs, %v paths, %v; want an empty index", ix.Docs(), ix.Paths(), err)
	}
}

// equalStrings compares string lists, treating nil and empty as equal.
func equalStrings(a, b []string) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

func BenchmarkBuild(b *testing.B) {
	ds := docs()
	for i := 0; i < 6; i++ {
		ds = append(ds, ds...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(ds)
	}
}
