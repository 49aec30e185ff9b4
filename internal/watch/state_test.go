package watch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"webrev/internal/concept"
	"webrev/internal/core"
	"webrev/internal/corpus"
	"webrev/internal/crawler"
)

// TestWatchShardCheckpointMigration: a checkpointed streaming build killed
// mid-stream leaves a version-2 shard checkpoint (state.json + conv/
// segment) that seeds a watcher — documents restore from the segment,
// statistics re-extract — the first cycle matches a cold build, and its
// save replaces conv/ with the watch's own store.
func TestWatchShardCheckpointMigration(t *testing.T) {
	site, srv := newSite(t, 8, 19)
	dir := t.TempDir()
	var sources []core.Source
	for _, path := range site.Paths() {
		if strings.HasPrefix(path, "/resumes/") {
			html, _ := site.Page(path)
			sources = append(sources, core.Source{Name: srv.URL + path, HTML: html})
		}
	}
	p, err := core.New(core.Config{
		Concepts:      concept.ResumeConcepts(),
		Constraints:   concept.ResumeConstraints(),
		RootName:      "resume",
		CheckpointDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Kill the build mid-stream: the producer cancels after five sources.
	const fed = 5
	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan core.Source)
	go func() {
		for i, s := range sources {
			if i == fed {
				cancel()
				return
			}
			in <- s
		}
	}()
	if _, err := p.BuildStream(ctx, in); !errors.Is(err, context.Canceled) {
		t.Fatalf("killed build returned %v, want context.Canceled", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, stateFileName))
	if err != nil {
		t.Fatal(err)
	}
	var ckpt struct{ Version, End, Stored int }
	if err := json.Unmarshal(data, &ckpt); err != nil {
		t.Fatal(err)
	}
	if ckpt.Version != 2 || ckpt.End != -1 || ckpt.Stored != fed {
		t.Fatalf("checkpoint %+v, want a version-2 open-ended shard holding %d documents", ckpt, fed)
	}

	w := newWatcher(t, srv, Options{StateDir: dir})
	if w.Docs() != fed {
		t.Fatalf("migrated %d docs, checkpoint holds %d", w.Docs(), fed)
	}
	res, err := w.Cycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderRepo(res.Repo), renderRepo(coldRepo(t, w, site, srv.URL)); got != want {
		t.Fatal("seeded shard checkpoint diverges from cold build")
	}
	// The first save replaced the seed's conv/ store with its own.
	assertStateDir(t, dir)
	if _, err := os.Stat(filepath.Join(dir, seedStore)); !os.IsNotExist(err) {
		t.Fatalf("conv/ survived the first save (stat err = %v)", err)
	}
	// The next life loads the watch format, seeded documents included.
	w2 := newWatcher(t, srv, Options{StateDir: dir})
	if w2.Cycles() != 1 || w2.Docs() != w.Docs() {
		t.Fatalf("reload: cycles %d docs %d, want 1/%d", w2.Cycles(), w2.Docs(), w.Docs())
	}
}

// TestWatchStateRejectsDocListManifest: manifests no writer produces any
// more — the version-1 document list, the version-2 watch manifest that
// carried its accumulator beside doc files — and versions too new fail to
// load, naming their version.
func TestWatchStateRejectsDocListManifest(t *testing.T) {
	for _, tc := range []struct{ manifest, version string }{
		{`{"version": 1, "docs": [{"idx": 0, "source": "http://example.test/a"}]}`, "version 1"},
		{`{"version": 2, "cycle": 1, "next_idx": 1, "acc": {}, "docs": [{"idx": 0, "url": "http://example.test/a"}]}`, "version 2"},
		{`{"version": 9, "cycle": 1, "store": "docs-000001", "stored": 0}`, "version 9"},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, stateFileName), []byte(tc.manifest), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := New(Options{Pipeline: testPipeline(t), Crawler: &crawler.Crawler{}, Seed: "http://example.test/", StateDir: dir})
		if err == nil || !strings.Contains(err.Error(), tc.version) {
			t.Fatalf("loading %s: err = %v, want one naming %s", tc.manifest, err, tc.version)
		}
	}
}

// assertStateDir fails unless dir holds exactly state.json and the one
// store its manifest names.
func assertStateDir(t *testing.T, dir string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, stateFileName))
	if err != nil {
		t.Fatal(err)
	}
	var m stateManifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if want := []string{m.Store, stateFileName}; !slices.Equal(names, want) {
		t.Fatalf("state dir holds %v, want %v", names, want)
	}
}

// readTree returns every file under dir, keyed by slash-separated path
// relative to dir.
func readTree(t testing.TB, dir string) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err == nil {
			files[filepath.ToSlash(rel)], err = os.ReadFile(path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// writeTree writes files (as readTree returns them) into dir.
func writeTree(t testing.TB, dir string, files map[string][]byte) {
	t.Helper()
	for rel, data := range files {
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// crashedSaves runs cycle 1 of a watcher over an 8-page site, replaces
// three pages with different resumes, runs cycle 2, and returns the site,
// its server and the state directory's files after each cycle.
func crashedSaves(t *testing.T) (*crawler.Site, *httptest.Server, map[string][]byte, map[string][]byte) {
	t.Helper()
	site, srv := newSite(t, 8, 23)
	dir := t.TempDir()
	w := newWatcher(t, srv, Options{StateDir: dir})
	if _, err := w.Cycle(context.Background()); err != nil {
		t.Fatal(err)
	}
	prev := readTree(t, dir)
	for i, r := range corpus.New(corpus.Options{Seed: 77}).Corpus(3) {
		site.SetPage(fmt.Sprintf("/resumes/%d.html", i+1), r.HTML)
	}
	res, err := w.Cycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Drift.Docs.Changed != 3 {
		t.Fatalf("cycle 2 changed %d documents, want 3", res.Drift.Docs.Changed)
	}
	return site, srv, prev, readTree(t, dir)
}

// TestWatchSaveCrashWindow: a save killed after it wrote its documents but
// before it renamed the manifest into place leaves the previous cycle
// authoritative. The crash is simulated as the previous cycle's directory
// plus every file cycle 2 wrote, under the previous manifest; a restarted
// watcher resumes at cycle 1, and its next cycle succeeds, equals a cold
// build, and leaves only the manifest and its store.
func TestWatchSaveCrashWindow(t *testing.T) {
	site, srv, prev, cur := crashedSaves(t)
	crash := maps.Clone(prev)
	for rel, data := range cur {
		if rel != stateFileName && !bytes.Equal(prev[rel], data) {
			crash[rel] = data
		}
	}
	dir := t.TempDir()
	writeTree(t, dir, crash)
	w := newWatcher(t, srv, Options{StateDir: dir})
	if w.Cycles() != 1 {
		t.Fatalf("restarted watcher at cycle %d, want 1", w.Cycles())
	}
	res, err := w.Cycle(context.Background())
	if err != nil {
		t.Fatalf("cycle after a crashed save: %v", err)
	}
	if got, want := renderRepo(res.Repo), renderRepo(coldRepo(t, w, site, srv.URL)); got != want {
		t.Fatal("cycle after a crashed save diverges from cold build")
	}
	assertStateDir(t, dir)
}

// TestWatchSaveCrashAfterRename: a save killed after its manifest rename
// but before it removed the previous store leaves the new cycle
// authoritative, and the next successful save removes the leftover store.
func TestWatchSaveCrashAfterRename(t *testing.T) {
	_, srv, prev, cur := crashedSaves(t)
	crash := maps.Clone(cur)
	for rel, data := range prev {
		if _, ok := crash[rel]; !ok {
			crash[rel] = data
		}
	}
	dir := t.TempDir()
	writeTree(t, dir, crash)
	w := newWatcher(t, srv, Options{StateDir: dir})
	if w.Cycles() != 2 {
		t.Fatalf("restarted watcher at cycle %d, want 2", w.Cycles())
	}
	if _, err := w.Cycle(context.Background()); err != nil {
		t.Fatal(err)
	}
	assertStateDir(t, dir)
}
