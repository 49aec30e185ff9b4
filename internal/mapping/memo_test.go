package mapping

import (
	"math/rand"
	"testing"
	"testing/quick"

	"webrev/internal/dom"
)

// randDoc builds a random tree mixing element and text nodes — richer than
// randTree, exercising the text-label interning and hash paths.
func randDoc(r *rand.Rand, maxNodes int) *dom.Node {
	tags := []string{"a", "b", "c", "d"}
	texts := []string{"x", "y", "longer text value", ""}
	root := el("root")
	parents := []*dom.Node{root}
	for i := 0; i < r.Intn(maxNodes); i++ {
		p := parents[r.Intn(len(parents))]
		if r.Intn(4) == 0 {
			p.AppendChild(dom.NewText(texts[r.Intn(len(texts))]))
			continue
		}
		c := el(tags[r.Intn(len(tags))])
		p.AppendChild(c)
		parents = append(parents, c)
	}
	return root
}

// TestPropertyMemoMatchesNaive is the central equivalence property: the
// pooled, memoized, interned-label TreeDistance must be bit-identical
// (float64 ==, not approximately equal) to the textbook reference on
// randomized document pairs.
func TestPropertyMemoMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randDoc(r, 30), randDoc(r, 30)
		if TreeDistance(a, b) != treeDistanceNaive(a, b) {
			return false
		}
		// Identical-tree pairs hit the memo short-circuit; the naive path
		// computes the full matrix. Both must be exactly 0.
		c := a.Clone()
		return TreeDistance(a, c) == 0 && treeDistanceNaive(a, c) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySymmetryAndIdentity re-checks the metric axioms on the
// text-bearing generator (the existing axiom test uses element-only trees).
func TestPropertySymmetryAndIdentity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randDoc(r, 25), randDoc(r, 25)
		if TreeDistance(a, b) != TreeDistance(b, a) {
			return false
		}
		return TreeDistance(a, a) == 0 && TreeDistance(b, b) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestTreeDistanceNilRoots(t *testing.T) {
	a := el("root", el("a"), el("b"))
	if d := TreeDistance(nil, nil); d != 0 {
		t.Fatalf("d(nil, nil) = %v, want 0", d)
	}
	if d := TreeDistance(nil, a); d != 3 {
		t.Fatalf("d(nil, tree) = %v, want 3 inserts", d)
	}
	if d := TreeDistance(a, nil); d != 3 {
		t.Fatalf("d(tree, nil) = %v, want 3 deletes", d)
	}
}

// TestTreeDistanceMemoHitCounter checks that identical-tree pairs are
// actually served by the subtree-hash short-circuit, and that near-misses
// (same size, different labels) are not.
func TestTreeDistanceMemoHitCounter(t *testing.T) {
	a := el("root", el("a", el("b")), el("c"))
	before := treeMemoHits.Load()
	if d := TreeDistance(a, a.Clone()); d != 0 {
		t.Fatalf("identical distance = %v", d)
	}
	after := treeMemoHits.Load()
	if after != before+1 {
		t.Fatalf("tree memo hits %d -> %d, want +1", before, after)
	}
	b := el("root", el("a", el("b")), el("d")) // one label differs
	before = after
	if d := TreeDistance(a, b); d != 1 {
		t.Fatalf("near-miss distance = %v, want 1", d)
	}
	after = treeMemoHits.Load()
	if after != before {
		t.Fatalf("near-miss must not count as a memo hit (%d -> %d)", before, after)
	}
}

// rootHash returns the structure hash ordered.build memoizes for n's whole
// tree — the hash behind TreeDistance's identical-tree short-circuit.
func rootHash(n *dom.Node) uint64 {
	sc := &zsScratch{labels: make(map[labelKey]int32)}
	sc.a.build(n, sc)
	return sc.a.hash[len(sc.a.hash)-1]
}

func TestSubtreeHash(t *testing.T) {
	a := el("root", el("a", el("b")), el("c"))
	if rootHash(a) != rootHash(a.Clone()) {
		t.Fatal("identical trees must hash equal")
	}
	b := el("root", el("a", el("b")), el("d"))
	if rootHash(a) == rootHash(b) {
		t.Fatal("differing trees should hash differently")
	}
	// Text content participates; comments do not.
	x1, x2 := el("x"), el("x")
	x1.AppendChild(dom.NewText("hello"))
	x2.AppendChild(dom.NewText("world"))
	if rootHash(x1) == rootHash(x2) {
		t.Fatal("text content must affect the hash")
	}
	x3 := el("x")
	x3.AppendChild(dom.NewText("hello"))
	x3.AppendChild(&dom.Node{Type: dom.CommentNode, Text: "ignored"})
	if rootHash(x1) != rootHash(x3) {
		t.Fatal("comments must not affect the hash")
	}
	// A text node and an element with the same spelling must differ: the
	// kind marker keeps text "a" from colliding with <a>.
	if rootHash(dom.NewText("a")) == rootHash(el("a")) {
		t.Fatal("text and element with same spelling must hash differently")
	}
}
