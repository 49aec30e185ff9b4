package webrev_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"webrev"
	"webrev/internal/corpus"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

const (
	goldenDocs = 12
	goldenSeed = 99
)

// goldenBuild runs the full pipeline over a fixed synthetic corpus with a
// recording tracer and returns the repository plus its metrics snapshot.
func goldenBuild(t *testing.T) (*webrev.Repository, *webrev.Snapshot) {
	t.Helper()
	coll := webrev.NewCollector()
	pipe, err := webrev.New(webrev.Config{
		Concepts:    webrev.ResumeConcepts(),
		Constraints: webrev.ResumeConstraints(),
		RootName:    "resume",
		Tracer:      coll,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sources []webrev.Source
	for _, r := range corpus.New(corpus.Options{Seed: goldenSeed}).Corpus(goldenDocs) {
		sources = append(sources, webrev.Source{Name: r.Name, HTML: r.HTML})
	}
	repo, err := pipe.Build(sources)
	if err != nil {
		t.Fatal(err)
	}
	return repo, coll.Snapshot()
}

// render produces the deterministic text artifacts of one build: every
// conformed document as XML, the derived DTD, and the normalized metrics
// snapshot (wall-clock timings zeroed, span counts and counters kept).
func renderGolden(t *testing.T, repo *webrev.Repository, snap *webrev.Snapshot) map[string]string {
	t.Helper()
	out := map[string]string{"schema.dtd": repo.DTD.Render()}
	var xml strings.Builder
	for i, c := range repo.Conformed {
		fmt.Fprintf(&xml, "<!-- %s -->\n%s\n", repo.Docs[i].Source, webrev.MarshalXML(c))
	}
	out["conformed.xml"] = xml.String()
	var buf bytes.Buffer
	if err := snap.Normalize().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out["metrics.json"] = buf.String()
	return out
}

// TestGoldenBuild pins the end-to-end pipeline output — conformed XML, DTD,
// and normalized stage metrics — against committed golden files. Run with
// -update to regenerate after an intentional behavior change.
func TestGoldenBuild(t *testing.T) {
	repo, snap := goldenBuild(t)

	// Stage metrics must be live before normalization: every pipeline
	// stage observed at least once with real elapsed time.
	for _, stage := range webrev.PipelineStages {
		st := snap.Stages[stage]
		if st.Count == 0 || st.Total <= 0 {
			t.Errorf("stage %q not recorded: %+v", stage, st)
		}
	}
	if snap.Counters["docs.converted"] != goldenDocs {
		t.Errorf("docs.converted = %d, want %d", snap.Counters["docs.converted"], goldenDocs)
	}
	// The hot-path memos must be machine-deterministic: DeriveDTD warms
	// the compiled conformance index, so every mapped document is a memo
	// hit, and the build merges its shard accumulators exactly once.
	if snap.Counters["map.memo_hits"] != goldenDocs {
		t.Errorf("map.memo_hits = %d, want %d (every Conform should reuse the precompiled index)",
			snap.Counters["map.memo_hits"], goldenDocs)
	}
	if st := snap.Stages["schema.merge"]; st.Count != 1 {
		t.Errorf("schema.merge count = %d, want 1", st.Count)
	}

	got := renderGolden(t, repo, snap)
	dir := filepath.Join("testdata", "golden")
	if *update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, content := range got {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("rewrote %d golden files in %s", len(got), dir)
		return
	}
	for name, content := range got {
		want, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("missing golden file (run `go test -run TestGoldenBuild -update .`): %v", err)
		}
		if string(want) != content {
			t.Errorf("%s differs from golden file; if the change is intentional rerun with -update\n%s",
				name, firstDiff(string(want), content))
		}
	}
}

// TestGoldenBuildDeterministic asserts two independent builds of the same
// corpus produce byte-identical artifacts (guards the parallel mapping and
// conversion paths against ordering nondeterminism).
func TestGoldenBuildDeterministic(t *testing.T) {
	repoA, snapA := goldenBuild(t)
	repoB, snapB := goldenBuild(t)
	a := renderGolden(t, repoA, snapA)
	b := renderGolden(t, repoB, snapB)
	for name := range a {
		if a[name] != b[name] {
			t.Errorf("%s differs between two identical builds\n%s", name, firstDiff(a[name], b[name]))
		}
	}
}

// firstDiff locates the first differing line of two texts for readable
// failure output.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  golden: %s\n  got:    %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("lengths differ: golden %d lines, got %d lines", len(wl), len(gl))
}
