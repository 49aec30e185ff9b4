package mapping

import (
	"testing"

	"webrev/internal/dom"
	"webrev/internal/dtd"
	"webrev/internal/obs"
)

// TestConformGroupParity drives assembleGroup through Conform and
// ConformScript on every tuple shape (complete, missing member, surplus
// under One, empty): recording the script must not change the
// transformation or the counts.
func TestConformGroupParity(t *testing.T) {
	src := `<!ELEMENT resume ((#PCDATA), education)>
<!ELEMENT education ((#PCDATA), (institution, degree)+)>
<!ELEMENT institution (#PCDATA)>
<!ELEMENT degree (#PCDATA)>`
	d, err := dtdParse(src)
	if err != nil {
		t.Fatal(err)
	}
	oneSrc := `<!ELEMENT resume ((#PCDATA), (name, phone))>
<!ELEMENT name (#PCDATA)>
<!ELEMENT phone (#PCDATA)>`
	dOne, err := dtdParse(oneSrc)
	if err != nil {
		t.Fatal(err)
	}
	cases := []*dom.Node{
		el("resume", el("education", el("institution"), el("degree"))),
		el("resume", el("education", el("institution"), el("degree"), el("institution"))),
		el("resume", el("education")),
		el("resume", el("education", el("degree"), el("degree"), el("institution"))),
		el("resume"),
	}
	for i, doc := range cases {
		for _, dd := range []*dtd.DTD{d, dOne} {
			fast, stats := Conform(doc, dd)
			scripted, script := ConformScript(doc, dd)
			if !fast.Equal(scripted) {
				t.Fatalf("case %d (%s): counted and scripted trees differ", i, dd.RootName)
			}
			if stats != script.Stats() {
				t.Fatalf("case %d (%s): stats %+v != script stats %+v", i, dd.RootName, stats, script.Stats())
			}
			if !dd.Conforms(fast) {
				t.Fatalf("case %d (%s): output invalid: %v", i, dd.RootName, dd.Validate(fast))
			}
		}
	}
	// Surplus members under a One group must merge identically with and
	// without a script (two phones into the tuple's single slot).
	doc := el("resume", el("name"), el("phone"), el("phone"))
	fast, stats := Conform(doc, dOne)
	scripted, script := ConformScript(doc, dOne)
	if !fast.Equal(scripted) || stats != script.Stats() {
		t.Fatalf("one-group surplus: parity broken (stats %+v vs %+v)", stats, script.Stats())
	}
	if stats.Merged == 0 {
		t.Fatalf("expected a merge, got %+v", stats)
	}
}

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
