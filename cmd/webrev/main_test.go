package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"webrev/internal/core"
	"webrev/internal/corpus"
	"webrev/internal/crawler"
	"webrev/internal/obs"
	"webrev/internal/repository"
	"webrev/internal/schema"
)

// writeResume writes a small well-formed resume file and returns its path.
func writeResume(t *testing.T, dir, name string) string {
	t.Helper()
	html := `<html><body><h1>Test Person</h1>
<h2>Education</h2><ul><li>University of Testing, B.S. Computer Science, June 1996</li></ul>
<h2>Experience</h2><p>Acme Inc, Software Engineer, January 1998 - June 2000, Developed tools</p>
<h2>Skills</h2><p>Java, SQL</p>
</body></html>`
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(html), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCmdConvert(t *testing.T) {
	dir := t.TempDir()
	f := writeResume(t, dir, "a.html")
	var out strings.Builder
	if err := cmdConvert([]string{f}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"<resume", "<education", "<institution", "identified"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

func TestCmdConvertNoFiles(t *testing.T) {
	var out strings.Builder
	if err := cmdConvert(nil, &out); err == nil {
		t.Fatal("expected error for no input files")
	}
	if err := cmdConvert([]string{"/no/such/file.html"}, &out); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestCmdSchemaAndDTD(t *testing.T) {
	dir := t.TempDir()
	files := []string{
		writeResume(t, dir, "a.html"),
		writeResume(t, dir, "b.html"),
	}
	var schemaOut strings.Builder
	if err := cmdSchema(append([]string{"-sup", "0.5"}, files...), false, &schemaOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(schemaOut.String(), "majority schema over 2 documents") {
		t.Fatalf("schema output:\n%s", schemaOut.String())
	}
	var dtdOut strings.Builder
	if err := cmdSchema(append([]string{"-sup", "0.5"}, files...), true, &dtdOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dtdOut.String(), "<!ELEMENT resume") {
		t.Fatalf("dtd output:\n%s", dtdOut.String())
	}
}

func TestCmdBuildAndQuery(t *testing.T) {
	dir := t.TempDir()
	files := []string{
		writeResume(t, dir, "a.html"),
		writeResume(t, dir, "b.html"),
		writeResume(t, dir, "c.html"),
	}
	repoDir := filepath.Join(dir, "repo")
	var out strings.Builder
	if err := cmdBuild(append([]string{"-sup", "0.5", "-out", repoDir}, files...), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "wrote 3 XML documents") {
		t.Fatalf("build output:\n%s", out.String())
	}
	var qOut strings.Builder
	if err := cmdQuery([]string{"-repo", repoDir, "//institution"}, &qOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(qOut.String(), "matches in 3 documents") {
		t.Fatalf("query output:\n%s", qOut.String())
	}
	// Errors.
	if err := cmdQuery([]string{"-repo", repoDir}, &qOut); err == nil {
		t.Fatal("missing expression should error")
	}
	if err := cmdQuery([]string{"-repo", filepath.Join(dir, "nope"), "//x"}, &qOut); err == nil {
		t.Fatal("missing repo should error")
	}
	if err := cmdQuery([]string{"-repo", repoDir, "bad query"}, &qOut); err == nil {
		t.Fatal("bad query should error")
	}
}

// TestCmdQueryOpensShardedBuild: `webrev query` reads the repository a
// build leaves in its working directory's final/, and the copy `-out`
// writes.
func TestCmdQueryOpensShardedBuild(t *testing.T) {
	dir := t.TempDir()
	files := []string{
		writeResume(t, dir, "a.html"),
		writeResume(t, dir, "b.html"),
		writeResume(t, dir, "c.html"),
	}
	work, repoDir := filepath.Join(dir, "work"), filepath.Join(dir, "repo")
	var out strings.Builder
	if err := cmdBuild(append([]string{"-shards", "2", "-dir", work, "-out", repoDir}, files...), &out); err != nil {
		t.Fatal(err)
	}
	for _, repo := range []string{filepath.Join(work, "final"), repoDir} {
		var qOut strings.Builder
		if err := cmdQuery([]string{"-repo", repo, "//institution"}, &qOut); err != nil {
			t.Fatalf("query -repo %s: %v", repo, err)
		}
		if !strings.Contains(qOut.String(), "matches in 3 documents") || !strings.Contains(qOut.String(), "<institution") {
			t.Fatalf("query -repo %s output:\n%s", repo, qOut.String())
		}
	}
}

// TestCmdBuildSourcesAgree: the same corpus given as sorted file arguments
// or as -corpus DIR, at one shard or three, builds a repository directory
// byte-identical to the in-memory build's Save; a rerun over the same
// -dir resumes to the same bytes; a generated corpus passes -verify, and
// a build without -dir leaves no working directory behind.
func TestCmdBuildSourcesAgree(t *testing.T) {
	corpusDir := t.TempDir()
	var files []string
	var srcs []core.Source
	for i, r := range corpus.New(corpus.Options{Seed: 5}).Corpus(7) {
		path := filepath.Join(corpusDir, fmt.Sprintf("r-%02d.html", i))
		if err := os.WriteFile(path, []byte(r.HTML), 0o644); err != nil {
			t.Fatal(err)
		}
		files = append(files, path)
		srcs = append(srcs, core.Source{Name: path, HTML: r.HTML})
	}
	p, err := newPipeline("resume", 0.5, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := p.BuildRepository(srcs)
	if err != nil {
		t.Fatal(err)
	}
	refDir := filepath.Join(t.TempDir(), "ref")
	if err := ref.Save(refDir); err != nil {
		t.Fatal(err)
	}
	want := readDir(t, refDir)

	for _, shards := range []string{"1", "3"} {
		for _, src := range [][]string{files, {"-corpus", corpusDir}} {
			work := t.TempDir()
			for run := 0; run < 2; run++ {
				out := filepath.Join(t.TempDir(), "repo")
				args := append([]string{"-shards", shards, "-dir", work, "-out", out}, src...)
				if err := cmdBuild(args, io.Discard); err != nil {
					t.Fatalf("build %v: %v", args, err)
				}
				if got := readDir(t, out); !reflect.DeepEqual(got, want) {
					t.Fatalf("build %v (run %d): -out differs from the in-memory build's Save", args, run+1)
				}
			}
		}
	}

	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	var out strings.Builder
	if err := cmdBuild([]string{"-n", "20", "-seed", "1", "-shards", "3", "-verify"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "byte-identical to single-process build (20 documents)") {
		t.Fatalf("-verify output:\n%s", out.String())
	}
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Fatalf("build without -dir left %d entries in the temp directory", len(left))
	}
	for _, args := range [][]string{nil, {"-n", "2", files[0]}, {"-corpus", t.TempDir()},
		{"-shards", "0", "-n", "2"}, {"-shards", "-1", "-n", "2"}} {
		if err := cmdBuild(args, io.Discard); err == nil {
			t.Fatalf("build %v accepted", args)
		}
	}
}

// TestCmdBuildGeneratedSources: the -n provider's documents are the
// per-index seeded resumes a fresh generator produces, although every
// index shares one compiled concept set.
func TestCmdBuildGeneratedSources(t *testing.T) {
	const seed = 7
	total, at, err := buildSources(nil, "", 20, seed)
	if err != nil || total != 20 {
		t.Fatalf("buildSources: total %d, err %v", total, err)
	}
	for i := 0; i < total; i++ {
		got, err := at(i)
		if err != nil {
			t.Fatal(err)
		}
		want := corpus.New(corpus.Options{Seed: seed + int64(i)*1000003}).Resume().HTML
		if got.HTML != want {
			t.Fatalf("document %d differs from a fresh generator's resume", i)
		}
	}
}

// readDir returns every file of dir by name.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

func TestCmdBuildMetricsSnapshot(t *testing.T) {
	dir := t.TempDir()
	files := []string{
		writeResume(t, dir, "a.html"),
		writeResume(t, dir, "b.html"),
	}
	snapPath := filepath.Join(dir, "snap.json")
	var out strings.Builder
	if err := cmdBuild(append([]string{"-metrics", snapPath}, files...), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "stage") || !strings.Contains(out.String(), "pipeline.convert") {
		t.Fatalf("build with -metrics did not print the stage summary:\n%s", out.String())
	}
	f, err := os.Open(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap, err := obs.ReadSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range obs.PipelineStages {
		if snap.Stages[stage].Count == 0 {
			t.Fatalf("snapshot missing stage %q: %v", stage, snap.Stages)
		}
	}
	if snap.Counters[obs.CtrDocsConverted] != 2 {
		t.Fatalf("docs.converted = %d, want 2", snap.Counters[obs.CtrDocsConverted])
	}
}

// TestCmdExperimentsUnknownID: an id outside the experiment table fails
// with a usage error naming it, before any experiment runs.
func TestCmdExperimentsUnknownID(t *testing.T) {
	for _, id := range []string{"E11", "E8", "e99"} {
		var out strings.Builder
		err := cmdExperiments([]string{"-run", "E1," + id, "-docs", "4"}, &out)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", id)) || !strings.Contains(err.Error(), "E13") {
			t.Fatalf("-run E1,%s: err = %v, want a usage error naming %q and the valid ids", id, err, id)
		}
		if out.Len() != 0 {
			t.Fatalf("-run E1,%s ran experiments before failing:\n%s", id, out.String())
		}
	}
}

// TestCmdExperimentsDocsMinimum: a -docs below what a selected experiment
// can use is a usage error naming the experiment and its minimum, raised
// before anything runs; at its minimum every experiment reports numbers,
// never NaN.
func TestCmdExperimentsDocsMinimum(t *testing.T) {
	for _, c := range []struct {
		run, docs, want string
	}{
		{"E1,E3", "3", "E3 needs -docs 4"},
		{"E6", "1", "E6 needs -docs 2"},
		{"E3,E6", "1", "E3 needs -docs 4"},
		{"E1", "-1", "E1 needs -docs 1"},
	} {
		var out strings.Builder
		err := cmdExperiments([]string{"-run", c.run, "-docs", c.docs}, &out)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("-run %s -docs %s: err = %v, want %q", c.run, c.docs, err, c.want)
		}
		if out.Len() != 0 {
			t.Fatalf("-run %s -docs %s ran experiments before failing:\n%s", c.run, c.docs, out.String())
		}
	}
	for _, e := range experimentTable {
		var out strings.Builder
		if err := cmdExperiments([]string{"-run", e.id, "-docs", fmt.Sprint(e.min)}, &out); err != nil {
			t.Fatalf("%s at -docs %d: %v", e.id, e.min, err)
		}
		if strings.Contains(out.String(), "NaN") {
			t.Fatalf("%s at -docs %d prints NaN:\n%s", e.id, e.min, out.String())
		}
	}
}

// TestExperimentsDocMatchesReports: EXPERIMENTS.md quotes the reports of
// the deterministic experiments (E1, E2, E4, E5, E6 at their default sizes
// and seed 1) verbatim, each as one fenced block.
func TestExperimentsDocMatchesReports(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := cmdExperiments([]string{"-run", "E1,E2,E4,E5,E6"}, &out); err != nil {
		t.Fatal(err)
	}
	reports := strings.Split(strings.TrimSuffix(out.String(), "\n\n"), "\n\n")
	if len(reports) != 5 {
		t.Fatalf("got %d reports, want 5:\n%s", len(reports), out.String())
	}
	for _, rep := range reports {
		if block := "```\n" + rep + "\n```\n"; !strings.Contains(string(doc), block) {
			t.Errorf("EXPERIMENTS.md does not quote this report as a fenced block:\n%s", block)
		}
	}
}

func TestCmdExperimentsSmall(t *testing.T) {
	var out strings.Builder
	err := cmdExperiments([]string{"-run", "E1,E2", "-docs", "10", "-seed", "2"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "E1 —") || !strings.Contains(got, "E2 —") {
		t.Fatalf("experiments output:\n%s", got)
	}
	if strings.Contains(got, "E3 —") {
		t.Fatal("unselected experiment ran")
	}
}

func TestCmdSuggest(t *testing.T) {
	dir := t.TempDir()
	var files []string
	for i := 0; i < 4; i++ {
		files = append(files, writeResume(t, dir, filepath.Join(fmt.Sprintf("s%d.html", i))))
	}
	var out strings.Builder
	if err := cmdSuggest(append([]string{"-mindocs", "3"}, files...), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "candidate") && !strings.Contains(got, "no instance candidates") {
		t.Fatalf("suggest output:\n%s", got)
	}
}

// TestCmdQuarantineRoundTrip seeds a quarantine store directly (as a
// faulty build would), lists it, replays it — the stored documents are
// well-formed, so the replay "fixes" them — and checks -rm empties the
// store: the full inspect-and-replay round trip.
func TestCmdQuarantineRoundTrip(t *testing.T) {
	dir := t.TempDir()
	store, err := core.OpenQuarantineStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	html, err := os.ReadFile(writeResume(t, t.TempDir(), "a.html"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"alpha.html", "beta.html"} {
		rec := core.FailureRecord{
			Stage: obs.StageConvert,
			URL:   name,
			Kind:  core.FailPanic,
			Err:   "injected panic",
		}
		if err := store.Put(rec, string(html)); err != nil {
			t.Fatal(err)
		}
	}

	var list strings.Builder
	if err := cmdQuarantine([]string{"-dir", dir, "list"}, &list); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"alpha.html", "beta.html", "panic", "injected panic", "2 quarantined"} {
		if !strings.Contains(list.String(), want) {
			t.Fatalf("list output missing %q:\n%s", want, list.String())
		}
	}

	var replay strings.Builder
	if err := cmdQuarantine([]string{"-dir", dir, "-rm", "replay"}, &replay); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(replay.String(), "2 now convert cleanly") {
		t.Fatalf("replay did not fix the documents:\n%s", replay.String())
	}

	var after strings.Builder
	if err := cmdQuarantine([]string{"-dir", dir, "list"}, &after); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(after.String(), "quarantine is empty") {
		t.Fatalf("store not emptied after replay -rm:\n%s", after.String())
	}
}

// TestCmdQuarantineErrors covers the usage errors.
func TestCmdQuarantineErrors(t *testing.T) {
	var out strings.Builder
	if err := cmdQuarantine(nil, &out); err == nil {
		t.Fatal("expected usage error without -dir")
	}
	if err := cmdQuarantine([]string{"-dir", t.TempDir(), "explode"}, &out); err == nil {
		t.Fatal("expected error for unknown action")
	}
}

// TestCmdExperimentsE10 runs the fault-tolerance sweep end to end through
// the CLI.
func TestCmdExperimentsE10(t *testing.T) {
	var out strings.Builder
	if err := cmdExperiments([]string{"-run", "E10", "-docs", "20"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"E10", "fidelity", "quarantined"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("E10 output missing %q:\n%s", want, out.String())
		}
	}
}

func TestCmdWatch(t *testing.T) {
	g := corpus.New(corpus.Options{Seed: 3})
	site := crawler.BuildSite(g.Corpus(8), []string{g.Distractor()})
	srv := httptest.NewServer(site.Handler())
	defer srv.Close()

	dir := t.TempDir()
	ckpt := filepath.Join(dir, "state")
	drift := filepath.Join(dir, "drift.json")
	repoDir := filepath.Join(dir, "repo")
	var out strings.Builder
	err := cmdWatch([]string{
		"-seed", srv.URL + "/",
		"-checkpoint", ckpt,
		"-cycles", "2", "-interval", "0",
		"-drift", drift, "-out", repoDir,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); !strings.Contains(got, "cycle 1:") || !strings.Contains(got, "cycle 2:") {
		t.Fatalf("missing cycle summaries:\n%s", got)
	}

	// The drift file holds the latest cycle's report...
	blob, err := os.ReadFile(drift)
	if err != nil {
		t.Fatal(err)
	}
	var d schema.Drift
	if err := json.Unmarshal(blob, &d); err != nil {
		t.Fatal(err)
	}
	if d.Version != schema.DriftVersion || d.Cycle != 2 {
		t.Fatalf("drift file version=%d cycle=%d, want %d/2", d.Version, d.Cycle, schema.DriftVersion)
	}
	// ...the exported repository loads and serves queries...
	repo, err := repository.Load(repoDir)
	if err != nil {
		t.Fatal(err)
	}
	if repo.Len() == 0 {
		t.Fatal("exported repository is empty")
	}
	// ...and a restarted watch resumes from the checkpoint.
	out.Reset()
	err = cmdWatch([]string{
		"-seed", srv.URL + "/", "-checkpoint", ckpt, "-cycles", "1", "-interval", "0",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); !strings.Contains(got, "resuming at cycle 2") ||
		!strings.Contains(got, "cycle 3:") {
		t.Fatalf("restart did not resume from checkpoint:\n%s", got)
	}
}

func TestCmdWatchFlagValidation(t *testing.T) {
	if err := cmdWatch(nil, io.Discard); err == nil {
		t.Fatal("missing -seed accepted")
	}
}
