package experiments

import (
	"strings"
	"testing"
)

func TestRunHotPath(t *testing.T) {
	res, err := RunHotPath([]int{8, 16}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(res.Points))
	}
	for _, p := range res.Points {
		if !p.MapEqual {
			t.Fatalf("%d docs: precompiled conform diverged from cold", p.Docs)
		}
		// Every warm conform must reuse the precompiled index.
		if p.MemoHits != int64(p.Docs) {
			t.Fatalf("%d docs: warm memo hits = %d, want %d", p.Docs, p.MemoHits, p.Docs)
		}
		if p.TreeDistNs <= 0 || p.TreeDistMemoNs <= 0 {
			t.Fatalf("%d docs: tree-distance timings not recorded: %+v", p.Docs, p)
		}
	}
	rep := res.Report()
	for _, want := range []string{"E12", "memo-hits", "byte-for-byte"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
	if strings.Contains(rep, "EQUIVALENCE FAIL") {
		t.Fatalf("report flags an equivalence failure:\n%s", rep)
	}
}
