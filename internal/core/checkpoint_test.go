package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"webrev/internal/faultinject"
	"webrev/internal/obs"
)

// TestShardResumeAccumulator: a shard resumed from a checkpoint taken after
// k documents, one of them quarantined, rebuilds its accumulator from the
// conv segment alone, and the result marshals identically to an
// uninterrupted fold of the same k documents.
func TestShardResumeAccumulator(t *testing.T) {
	const n, k = 12, 6
	sources := chaosSources(n, 5)
	newPipeline := func() *Pipeline {
		// Seed 8 quarantines exactly one of the first k documents, for good.
		p, err := New(chaosConfig(faultinject.NewStage(faultinject.StageConfig{
			Seed: 8, Rate: 0.2, Stages: []string{obs.StageConvert}, FaultsPerKey: -1,
		}), nil))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	dir := t.TempDir()
	_, err := newPipeline().BuildShardedFrom(context.Background(), n, sourceAt(sources), ShardOptions{
		Shards: 1, Dir: dir, CheckpointEvery: k,
		kill: func(_, done int) bool { return done == k+1 },
	})
	if !errors.Is(err, errShardKilled) {
		t.Fatalf("killed build returned %v, want errShardKilled", err)
	}

	resumed := &shard{start: 0, end: n, dir: shardDir(dir, 0)}
	if err := newPipeline().openShard(resumed); err != nil {
		t.Fatal(err)
	}
	defer resumed.conv.Close()
	fresh := &shard{start: 0, end: k, next: rangeFeed(0, 0, k, sourceAt(sources))}
	if err := newPipeline().convertShard(context.Background(), &build{workers: 1, limit: 1}, fresh); err != nil {
		t.Fatal(err)
	}
	if q := len(fresh.st.Quarantined); q != 1 {
		t.Fatalf("%d of the first %d documents quarantined, want 1", q, k)
	}
	if resumed.st.Done != k || resumed.st.Stored != k-1 {
		t.Fatalf("resumed at done %d stored %d, want %d and %d", resumed.st.Done, resumed.st.Stored, k, k-1)
	}
	got, err := json.Marshal(resumed.acc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(fresh.acc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed accumulator differs from the uninterrupted fold:\n%s\n%s", got, want)
	}
}

// copyTree copies the directory tree src to dst.
func copyTree(t testing.TB, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err == nil {
			err = os.WriteFile(filepath.Join(dst, rel), data, 0o644)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// FuzzShardState opens a shard over arbitrary state.json bytes, written
// beside the conv segment of a real checkpoint of 4 of 6 documents whose
// segment also holds a fifth, appended after the checkpoint. The open must fail or leave a
// consistent shard — no more stored documents than the segment holds, and
// an accumulator folding exactly the stored ones — and must never panic or
// touch a path outside the shard directory.
func FuzzShardState(f *testing.F) {
	sources := streamSources(6, 17)
	p, err := New(streamConfig(nil, 0, 0))
	if err != nil {
		f.Fatal(err)
	}
	tmpl := f.TempDir()
	_, err = p.BuildShardedFrom(context.Background(), len(sources), sourceAt(sources), ShardOptions{
		Shards: 1, Dir: tmpl, CheckpointEvery: 2,
		kill: func(_, done int) bool { return done == 5 },
	})
	if !errors.Is(err, errShardKilled) {
		f.Fatalf("killed build returned %v, want errShardKilled", err)
	}
	tmpl = shardDir(tmpl, 0)
	valid, err := os.ReadFile(filepath.Join(tmpl, shardStateFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, s := range []string{
		`{"version":1,"start":0,"end":6,"done":4,"stored":4,"acc":{}}`,
		`{"version":2,"start":0,"end":6,"done":4,"stored":-1}`,
		`{"version":2,"start":0,"end":6,"done":6,"stored":6}`,
		`{"version":2,"start":0,"end":6,"done":99,"stored":4}`,
		`{"version":2,"start":0,"end":6,"done":-3,"stored":0}`,
		`{"version":2,"start":0,"end":7,"done":4,"stored":4}`,
		`{"version":2,"start":0,"end":6,"done":5,"stored":5,"quarantined":[{"url":"x"}]}`,
		`{"version":2`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		parent := t.TempDir()
		dir := filepath.Join(parent, "shard")
		copyTree(t, tmpl, dir)
		if err := os.WriteFile(filepath.Join(dir, shardStateFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s := &shard{start: 0, end: len(sources), dir: dir}
		err := p.openShard(s)
		if s.conv != nil {
			if err == nil && s.st.Stored > s.conv.Len() {
				t.Fatalf("checkpoint stores %d documents, segment holds %d", s.st.Stored, s.conv.Len())
			}
			s.conv.Close()
		}
		if err == nil && s.acc.Docs() != s.st.Stored {
			t.Fatalf("accumulator folds %d documents, checkpoint stores %d", s.acc.Docs(), s.st.Stored)
		}
		if ents, err := os.ReadDir(parent); err != nil || len(ents) != 1 {
			t.Fatalf("open wrote beside the shard directory: %v %v", ents, err)
		}
	})
}
