package schema_test

import (
	"math/rand"
	"testing"

	"webrev/internal/concept"
	"webrev/internal/convert"
	"webrev/internal/corpus"
	"webrev/internal/schema"
)

// convertedCorpus converts n generated resumes and extracts their path
// representations — realistic miner input with heterogeneous structure.
func convertedCorpus(t testing.TB, n int, seed int64) []*schema.DocPaths {
	t.Helper()
	g := corpus.New(corpus.Options{Seed: seed})
	conv := convert.New(concept.ResumeSet(), convert.Options{
		RootName:    "resume",
		Constraints: concept.ResumeConstraints(),
	})
	var out []*schema.DocPaths
	for _, r := range g.Corpus(n) {
		x, _ := conv.Convert(r.HTML)
		out = append(out, schema.Extract(x))
	}
	return out
}

// mineStats folds docs into per-shard accumulators according to shard
// assignment, merges the shards in the given order, and mines the result.
func mineStats(t *testing.T, m *schema.Miner, docs []*schema.DocPaths, assign []int, shards int, order []int) *schema.Schema {
	t.Helper()
	accs := make([]*schema.Accumulator, shards)
	for i := range accs {
		accs[i] = schema.NewAccumulator(0)
	}
	for i, d := range docs {
		accs[assign[i]].Add(i, d)
	}
	merged := schema.NewAccumulator(0)
	for _, s := range order {
		if err := merged.Merge(accs[s]); err != nil {
			t.Fatal(err)
		}
	}
	return m.DiscoverStats(merged)
}

// TestAccumulatorMergeCommutativeAssociative is the property behind the
// streaming build: any sharding of the corpus, merged in any order (and any
// association, since merge trees reduce to orders of pairwise merges into
// one accumulator), mines the identical schema — same supports, same
// supportRatios, same ordering and repetition statistics — as the batch
// miner over the full slice.
func TestAccumulatorMergeCommutativeAssociative(t *testing.T) {
	docs := convertedCorpus(t, 40, 7)
	m := &schema.Miner{SupThreshold: 0.3, RatioThreshold: 0.1,
		Constraints: concept.ResumeConstraints(), Set: concept.ResumeSet()}
	want := m.Discover(docs).String()
	if want == "" {
		t.Fatal("batch miner found no schema; corpus too small")
	}

	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		shards := 1 + rng.Intn(7)
		assign := make([]int, len(docs))
		for i := range assign {
			assign[i] = rng.Intn(shards)
		}
		order := rng.Perm(shards)
		got := mineStats(t, m, docs, assign, shards, order)
		if g := got.String(); g != want {
			t.Fatalf("trial %d (%d shards, order %v): merged schema differs\nwant:\n%s\ngot:\n%s",
				trial, shards, order, want, g)
		}
	}
}

// TestAccumulatorPairwiseAssociativity checks (a·b)·c == a·(b·c) directly
// on three shards, comparing the mined result of both association orders.
func TestAccumulatorPairwiseAssociativity(t *testing.T) {
	docs := convertedCorpus(t, 30, 11)
	build := func(lo, hi int) *schema.Accumulator {
		a := schema.NewAccumulator(0)
		for i := lo; i < hi; i++ {
			a.Add(i, docs[i])
		}
		return a
	}
	m := &schema.Miner{SupThreshold: 0.3, RatioThreshold: 0.1}

	// (a·b)·c
	left := build(0, 10)
	if err := left.Merge(build(10, 20)); err != nil {
		t.Fatal(err)
	}
	if err := left.Merge(build(20, 30)); err != nil {
		t.Fatal(err)
	}
	// a·(b·c)
	bc := build(10, 20)
	if err := bc.Merge(build(20, 30)); err != nil {
		t.Fatal(err)
	}
	right := build(0, 10)
	if err := right.Merge(bc); err != nil {
		t.Fatal(err)
	}

	ls, rs := m.DiscoverStats(left), m.DiscoverStats(right)
	if ls.String() != rs.String() {
		t.Fatalf("association order changed the schema\n(a·b)·c:\n%s\na·(b·c):\n%s", ls.String(), rs.String())
	}
	if ls.Docs != 30 || rs.Docs != 30 {
		t.Fatalf("doc counts wrong: %d, %d", ls.Docs, rs.Docs)
	}
}

// TestAccumulatorSupportRatiosExact pins the exactness claim: supports and
// supportRatios from merged shards equal the batch miner's to the last bit,
// not merely approximately.
func TestAccumulatorSupportRatiosExact(t *testing.T) {
	docs := convertedCorpus(t, 25, 3)
	m := &schema.Miner{SupThreshold: 0.3, RatioThreshold: 0.1}
	want := m.Discover(docs)

	assign := make([]int, len(docs))
	for i := range assign {
		assign[i] = i % 4
	}
	got := mineStats(t, m, docs, assign, 4, []int{2, 0, 3, 1})

	var collect func(n *schema.Node, into map[string][2]float64)
	collect = func(n *schema.Node, into map[string][2]float64) {
		into[n.Path] = [2]float64{n.Support, n.Ratio}
		for _, c := range n.Children {
			collect(c, into)
		}
	}
	wm, gm := map[string][2]float64{}, map[string][2]float64{}
	for _, r := range want.Roots {
		collect(r, wm)
	}
	for _, r := range got.Roots {
		collect(r, gm)
	}
	if len(wm) == 0 || len(wm) != len(gm) {
		t.Fatalf("schema sizes differ: batch %d, merged %d", len(wm), len(gm))
	}
	for p, w := range wm {
		if gm[p] != w {
			t.Errorf("path %s: batch (sup=%v ratio=%v) vs merged (sup=%v ratio=%v)",
				p, w[0], w[1], gm[p][0], gm[p][1])
		}
	}
}

// TestAccumulatorMergeThresholdMismatch rejects merging summaries folded
// with different repetition thresholds — their repDocs counts are not
// comparable.
func TestAccumulatorMergeThresholdMismatch(t *testing.T) {
	a, b := schema.NewAccumulator(3), schema.NewAccumulator(5)
	if err := a.Merge(b); err == nil {
		t.Fatal("merge of mismatched repetition thresholds succeeded")
	}
}
