package core

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"webrev/internal/dom"
	"webrev/internal/mapping"
	"webrev/internal/obs"
)

// TestBuildStreamCancelDuringMap: a sink that cancels the build's context
// on its first delivery stops the deliveries, and the build reports the
// cancellation instead of succeeding.
func TestBuildStreamCancelDuringMap(t *testing.T) {
	for _, parallelism := range []int{1, 4} {
		p, err := New(streamConfig(nil, parallelism, 8))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		calls := 0
		_, err = p.BuildStreamTo(ctx, SourceChan(streamSources(30, 7)),
			func(*Document, *dom.Node, mapping.EditStats) error {
				calls++
				cancel()
				return nil
			})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallelism=%d: err = %v, want context.Canceled", parallelism, err)
		}
		if calls != 1 {
			t.Fatalf("parallelism=%d: sink called %d times after cancelling on the first", parallelism, calls)
		}
	}
}

// TestShardCheckpointStrict: a rerun over a completed sharded build
// resumes from its checkpoint, but an unknown version or malformed
// state.json is a hard error, and a checkpoint for a different range
// restarts the shard fresh.
func TestShardCheckpointStrict(t *testing.T) {
	sources := streamSources(12, 17)
	want := renderDiskRepo(t, singleProcessRepo(t, sources))
	for _, tc := range []struct {
		name    string
		edit    func(state map[string]any, data []byte) []byte
		wantErr bool
		resumed int64 // shard.resumed on the rerun
		reconvs int64 // docs.converted on the rerun
	}{
		{name: "intact", edit: func(_ map[string]any, data []byte) []byte { return data }, resumed: 1},
		{name: "version 9", edit: func(st map[string]any, _ []byte) []byte {
			st["version"] = 9
			data, _ := json.Marshal(st)
			return data
		}, wantErr: true},
		{name: "truncated", edit: func(_ map[string]any, data []byte) []byte { return data[:len(data)/2] }, wantErr: true},
		{name: "different range", edit: func(st map[string]any, _ []byte) []byte {
			st["end"] = 7
			data, _ := json.Marshal(st)
			return data
		}, reconvs: 12},
	} {
		dir := t.TempDir()
		opts := ShardOptions{Shards: 1, Dir: dir, CheckpointEvery: 5}
		res, err := resumePipeline(t).BuildSharded(context.Background(), sources, opts)
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
		res, err = p.BuildSharded(context.Background(), sources, opts)
		if tc.wantErr {
			if err == nil {
				res.Repo.Store().Close()
				t.Fatalf("%s: rerun over a bad checkpoint succeeded", tc.name)
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
