package core

import (
	"context"
	"testing"

	"webrev/internal/schema"
)

// convertOne converts a single source outside a build, failing the test on
// quarantine — the unit the watch loop's incremental path works in.
func convertOne(t *testing.T, p *Pipeline, s Source) *Document {
	t.Helper()
	d, _, failed := p.convertGuarded(s.Name, s.HTML)
	if failed != nil {
		t.Fatalf("convert %s quarantined: %s", s.Name, failed.Err)
	}
	return d
}

// TestBuildFromStatsMatchesBuild: mining an accumulator that folded
// every document in corpus order, then mapping through BuildFromStats, is
// byte-identical to the cold batch build of the same sources.
func TestBuildFromStatsMatchesBuild(t *testing.T) {
	sources := streamSources(20, 17)
	cold, err := resumePipeline(t).Build(sources)
	if err != nil {
		t.Fatal(err)
	}

	p := resumePipeline(t)
	acc := schema.NewAccumulator(0)
	docs := make([]*Document, len(sources))
	for i, s := range sources {
		docs[i] = convertOne(t, p, s)
		acc.Add(i, p.ExtractPaths(docs[i]))
	}
	inc, err := p.BuildFromStats(context.Background(), docs, acc)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderRepo(inc), renderRepo(cold); got != want {
		t.Fatal("BuildFromStats repository differs from cold Build")
	}
	if inc.TotalMapCost() != cold.TotalMapCost() {
		t.Fatalf("map cost %d != cold %d", inc.TotalMapCost(), cold.TotalMapCost())
	}
}

// TestBuildFromStatsIncremental is the core-level equivalence wall for delta
// builds: after a change cycle (two documents replaced, one vanished, one
// new) applied to a maintained accumulator via Subtract/Add, BuildFromStats
// matches a cold build of the final corpus state byte for byte.
func TestBuildFromStatsIncremental(t *testing.T) {
	base := streamSources(20, 17)
	repl := streamSources(3, 99)

	p := resumePipeline(t)
	acc := schema.NewAccumulator(0)
	docs := make([]*Document, len(base))
	ids := make([]int, len(base))
	for i, s := range base {
		docs[i] = convertOne(t, p, s)
		ids[i] = i
		acc.Add(i, p.ExtractPaths(docs[i]))
	}

	retire := func(slot int) {
		if err := acc.Subtract(ids[slot], p.ExtractPaths(docs[slot])); err != nil {
			t.Fatalf("subtract doc %d: %v", ids[slot], err)
		}
	}

	// Two documents change in place: retire the old statistics, fold the
	// replacement under the same document id.
	final := append([]Source(nil), base...)
	for n, slot := range []int{3, 11} {
		retire(slot)
		final[slot] = Source{Name: repl[n].Name, HTML: repl[n].HTML}
		docs[slot] = convertOne(t, p, final[slot])
		acc.Add(ids[slot], p.ExtractPaths(docs[slot]))
	}
	// The last document vanishes.
	last := len(docs) - 1
	retire(last)
	docs, ids, final = docs[:last], ids[:last], final[:last]
	// One new document appears under a fresh id.
	next := Source{Name: repl[2].Name, HTML: repl[2].HTML}
	nd := convertOne(t, p, next)
	acc.Add(len(base), p.ExtractPaths(nd))
	docs, final = append(docs, nd), append(final, next)

	inc, err := p.BuildFromStats(context.Background(), docs, acc)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := resumePipeline(t).Build(final)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderRepo(inc), renderRepo(cold); got != want {
		t.Fatal("incremental repository differs from cold rebuild of the same corpus state")
	}
	if inc.ConformanceRate() != cold.ConformanceRate() {
		t.Fatalf("conformance %v != cold %v", inc.ConformanceRate(), cold.ConformanceRate())
	}
}

// TestBuildFromStatsValidation pins the two input errors: an empty corpus,
// and an accumulator whose fold count disagrees with the document slice.
func TestBuildFromStatsValidation(t *testing.T) {
	p := resumePipeline(t)
	if _, err := p.BuildFromStats(context.Background(), nil, schema.NewAccumulator(0)); err == nil {
		t.Fatal("empty corpus accepted")
	}
	s := streamSources(2, 5)
	d := convertOne(t, p, s[0])
	acc := schema.NewAccumulator(0)
	acc.Add(0, p.ExtractPaths(d))
	if _, err := p.BuildFromStats(context.Background(), []*Document{d, convertOne(t, p, s[1])}, acc); err == nil {
		t.Fatal("fold-count mismatch accepted")
	}
}
