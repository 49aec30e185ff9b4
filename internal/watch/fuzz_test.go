package watch

import (
	"bytes"
	"context"
	"encoding/json"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"webrev/internal/crawler"
	"webrev/internal/repository"
)

// FuzzWatchState loads a watcher over arbitrary state.json bytes, written
// over a copy of a real one-cycle state directory whose parent also holds
// a copy of its store with a torn index tail, which opening would heal.
// The load must fail or leave a consistent watcher — no more stored
// documents than its store holds, and an accumulator folding exactly the
// live ones — and must never panic or touch a path outside the copy.
func FuzzWatchState(f *testing.F) {
	_, srv := newSite(f, 5, 13)
	state := f.TempDir()
	w := newWatcher(f, srv, Options{StateDir: state})
	if _, err := w.Cycle(context.Background()); err != nil {
		f.Fatal(err)
	}
	tmpl := readTree(f, state)
	outside := make(map[string][]byte)
	for rel, data := range tmpl {
		if rel != stateFileName {
			outside[rel] = data
		}
	}
	torn := storeName(1) + "/index.log"
	outside[torn] = append(slices.Clip(outside[torn]), `{"name":"torn`...)
	f.Add(tmpl[stateFileName])
	for _, s := range []string{
		`{"version":3,"cycle":1,"store":"../docs-000001","stored":5}`,
		`{"version":3,"cycle":1,"store":"docs-000001","stored":99}`,
		`{"version":3,"cycle":1,"store":"docs-000001","stored":-1}`,
		`{"version":3,"cycle":2,"store":"docs-000001","stored":5}`,
		`{"version":2,"start":0,"end":-1,"done":5,"stored":5}`,
		`{"version":3,"cycle":1,"store":"docs-000001","stored":2,"crawl":{"pages":{}}}`,
		`{"version":2,"cycle":1,"acc":{},"docs":[]}`,
		`null`,
	} {
		f.Add([]byte(s))
	}
	p := testPipeline(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		parent := t.TempDir()
		dir := filepath.Join(parent, "state")
		files := maps.Clone(tmpl)
		files[stateFileName] = data
		writeTree(t, dir, files)
		writeTree(t, parent, outside)
		w, err := New(Options{Pipeline: p, Crawler: &crawler.Crawler{}, Seed: "http://example.test/", StateDir: dir})
		if err == nil {
			var m stateManifest
			if err := json.Unmarshal(data, &m); err != nil {
				t.Fatalf("loaded a manifest that does not decode: %v", err)
			}
			if m.Store == "" {
				m.Store = seedStore
			}
			store, err := repository.OpenDiskStore(filepath.Join(dir, m.Store), repository.DiskOptions{})
			if err != nil {
				t.Fatal(err)
			}
			n := store.Len()
			store.Close()
			if w.Docs() != m.Stored || m.Stored > n {
				t.Fatalf("watcher holds %d documents, manifest stores %d, store holds %d", w.Docs(), m.Stored, n)
			}
			if w.acc.Docs() != w.Docs() {
				t.Fatalf("accumulator folds %d documents, watcher holds %d", w.acc.Docs(), w.Docs())
			}
		}
		after := readTree(t, parent)
		for rel := range after {
			if strings.HasPrefix(rel, "state/") {
				delete(after, rel)
			}
		}
		if !maps.EqualFunc(after, outside, bytes.Equal) {
			t.Fatal("load changed files outside the state directory")
		}
	})
}
