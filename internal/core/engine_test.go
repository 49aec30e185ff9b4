package core

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"webrev/internal/obs"
)

// cancelOnMap is a tracer that cancels its build's context when the first
// document's mapping starts, and counts the mappings started.
type cancelOnMap struct {
	obs.Tracer
	cancel context.CancelFunc
	maps   atomic.Int64
}

func (c *cancelOnMap) StartSpan(name string) obs.Span {
	if name == obs.StageMap && c.maps.Add(1) == 1 {
		c.cancel()
	}
	return c.Tracer.StartSpan(name)
}

// TestBuildStreamCancelDuringMap: a context cancelled while the first
// document is being mapped stops the map phase, and the build reports the
// cancellation instead of a repository. No document commits before the
// first mapping starts, so at most MaxInFlight documents were pulled into
// the pool by then, and none is pulled after it.
func TestBuildStreamCancelDuringMap(t *testing.T) {
	const docs, maxInFlight = 30, 8
	for _, parallelism := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		tr := &cancelOnMap{Tracer: obs.Nop(), cancel: cancel}
		p, err := New(streamConfig(tr, parallelism, maxInFlight))
		if err != nil {
			t.Fatal(err)
		}
		repo, err := p.BuildStream(ctx, SourceChan(streamSources(docs, 7)))
		cancel()
		if !errors.Is(err, context.Canceled) || repo != nil {
			t.Fatalf("parallelism=%d: got repo %v, err %v; want nil, context.Canceled", parallelism, repo != nil, err)
		}
		if n := tr.maps.Load(); n > maxInFlight {
			t.Fatalf("parallelism=%d: mapped %d documents after cancelling on the first", parallelism, n)
		}
	}
}

// TestShardCheckpointStrict: a rerun over a completed sharded build
// resumes from its checkpoint, but an unknown version — including version
// 1, which carried the accumulator and has no writer left — a malformed
// state.json, or counts outside the shard's range is a hard error, and a
// checkpoint for a different range restarts the shard fresh.
func TestShardCheckpointStrict(t *testing.T) {
	sources := streamSources(12, 17)
	want := renderDiskRepo(t, singleProcessRepo(t, sources))
	version := func(v int) func(map[string]any, []byte) []byte {
		return func(st map[string]any, _ []byte) []byte {
			st["version"] = v
			data, _ := json.Marshal(st)
			return data
		}
	}
	for _, tc := range []struct {
		name    string
		edit    func(state map[string]any, data []byte) []byte
		wantErr string // a substring of the rerun's error; empty: no error
		resumed int64  // shard.resumed on the rerun
		reconvs int64  // docs.converted on the rerun
	}{
		{name: "intact", edit: func(_ map[string]any, data []byte) []byte { return data }, resumed: 1},
		{name: "version 1", edit: version(1), wantErr: "version 1"},
		{name: "version 9", edit: version(9), wantErr: "version 9"},
		{name: "truncated", edit: func(_ map[string]any, data []byte) []byte { return data[:len(data)/2] }, wantErr: "unexpected end"},
		{name: "counts outside the range", edit: func(st map[string]any, _ []byte) []byte {
			st["done"] = -3 // resuming would ask the provider for source -3
			data, _ := json.Marshal(st)
			return data
		}, wantErr: "outside the range"},
		{name: "different range", edit: func(st map[string]any, _ []byte) []byte {
			st["end"] = 7
			data, _ := json.Marshal(st)
			return data
		}, reconvs: 12},
	} {
		dir := t.TempDir()
		opts := ShardOptions{Shards: 1, Dir: dir, CheckpointEvery: 5}
		res, err := resumePipeline(t).BuildShardedFrom(context.Background(), len(sources), sourceAt(sources), opts)
		if err != nil {
			t.Fatal(err)
		}
		res.Repo.Store().Close()
		path := filepath.Join(shardDir(dir, 0), shardStateFile)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var st map[string]any
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, tc.edit(st, data), 0o644); err != nil {
			t.Fatal(err)
		}

		coll := obs.NewCollector()
		p, err := New(streamConfig(coll, 0, 0))
		if err != nil {
			t.Fatal(err)
		}
		res, err = p.BuildShardedFrom(context.Background(), len(sources), sourceAt(sources), opts)
		if tc.wantErr != "" {
			if err == nil {
				res.Repo.Store().Close()
				t.Fatalf("%s: rerun over a bad checkpoint succeeded", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("%s: rerun failed with %v, want an error naming %q", tc.name, err, tc.wantErr)
			}
			if n := coll.Counter(obs.CtrDocsConverted); n != 0 {
				t.Fatalf("%s: rerun reconverted %d documents before failing", tc.name, n)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := renderDiskRepo(t, res.Repo)
		res.Repo.Store().Close()
		if got != want {
			t.Fatalf("%s: rerun output differs from the single-process build", tc.name)
		}
		if r, c := coll.Counter(obs.CtrShardsResumed), coll.Counter(obs.CtrDocsConverted); r != tc.resumed || c != tc.reconvs {
			t.Fatalf("%s: rerun resumed %d shards and converted %d documents, want %d and %d",
				tc.name, r, c, tc.resumed, tc.reconvs)
		}
	}
}
