package mapping

import (
	"testing"

	"webrev/internal/obs"
)

// TestConformTracedMemoHits pins the map.memo_hits counter semantics: a
// cold DTD's first conform builds the index (no hit), every later conform
// reuses it, and Precompile warms it so even the first conform hits.
func TestConformTracedMemoHits(t *testing.T) {
	doc := el("resume", el("education", el("degree"), el("date")))

	cold := resumeDTD(t)
	col := obs.NewCollector()
	ConformTraced(doc, cold, col)
	ConformTraced(doc, cold, col)
	snap := col.Snapshot()
	if got := snap.Counters[obs.CtrMapMemoHits]; got != 1 {
		t.Fatalf("cold DTD memo hits = %d, want 1 (first call builds)", got)
	}
	if got := snap.Counters[obs.CtrMapDocs]; got != 2 {
		t.Fatalf("map.docs = %d, want 2", got)
	}

	warm := resumeDTD(t)
	Precompile(warm)
	Precompile(warm) // idempotent
	col2 := obs.NewCollector()
	out, stats := ConformTraced(doc, warm, col2)
	if got := col2.Snapshot().Counters[obs.CtrMapMemoHits]; got != 1 {
		t.Fatalf("precompiled DTD memo hits = %d, want 1", got)
	}
	// Warm and cold outputs are identical.
	outCold, statsCold := Conform(doc, cold)
	if !out.Equal(outCold) || stats != statsCold {
		t.Fatalf("warm/cold outputs differ: %+v vs %+v", stats, statsCold)
	}

	Precompile(nil) // must not panic
}
