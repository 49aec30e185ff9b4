package watch

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"webrev/internal/concept"
	"webrev/internal/core"
	"webrev/internal/crawler"
)

// TestWatchShardCheckpointMigration: a checkpointed streaming build killed
// mid-stream leaves a shard checkpoint (state.json + conv/ segment) that
// seeds a watcher — documents restore from the segment, statistics
// re-extract — and the first cycle matches a cold build.
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
	if ckpt.Version != 1 || ckpt.End != -1 || ckpt.Stored != fed {
		t.Fatalf("checkpoint %+v, want a version-1 open-ended shard holding %d documents", ckpt, fed)
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
		t.Fatal("migrated shard checkpoint diverges from cold build")
	}
	// The next life loads as version 2, migrated documents included.
	w2 := newWatcher(t, srv, Options{StateDir: dir})
	if w2.Cycles() != 1 || w2.Docs() != w.Docs() {
		t.Fatalf("v2 reload: cycles %d docs %d, want 1/%d", w2.Cycles(), w2.Docs(), w.Docs())
	}
}

// TestWatchStateRejectsDocListManifest: the version-1 manifest that listed
// doc files instead of carrying a shard checkpoint's accumulator is no
// longer read, and loading it fails naming its version.
func TestWatchStateRejectsDocListManifest(t *testing.T) {
	dir := t.TempDir()
	manifest := `{"version": 1, "docs": [{"idx": 0, "source": "http://example.test/a"}]}`
	if err := os.WriteFile(filepath.Join(dir, stateFileName), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := New(Options{Pipeline: testPipeline(t), Crawler: &crawler.Crawler{}, Seed: "http://example.test/", StateDir: dir})
	if err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("loading a version-1 doc-list manifest: err = %v, want one naming version 1", err)
	}
}
