package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"webrev/internal/concept"
	"webrev/internal/core"
	"webrev/internal/corpus"
	"webrev/internal/obs"
	"webrev/internal/repository"
	"webrev/internal/schema"
)

func TestRunFlagValidation(t *testing.T) {
	if err := run(nil, io.Discard); err == nil {
		t.Fatal("no source flags accepted")
	}
	if err := run([]string{"-repo", "x", "-follow", "y"}, io.Discard); err == nil {
		t.Fatal("both -repo and -follow accepted")
	}
	if err := run([]string{"-badflag"}, io.Discard); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

// testPipeline is the resume pipeline webrev build runs by default.
func testPipeline(t *testing.T) *core.Pipeline {
	t.Helper()
	p, err := core.New(core.Config{
		Concepts:       concept.ResumeConcepts(),
		Constraints:    concept.ResumeConstraints(),
		RootName:       "resume",
		SupThreshold:   0.5,
		RatioThreshold: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// corpusSources returns n generated resumes as build sources.
func corpusSources(n int, seed int64) []core.Source {
	var srcs []core.Source
	for _, r := range corpus.New(corpus.Options{Seed: seed}).Corpus(n) {
		srcs = append(srcs, core.Source{Name: r.Name, HTML: r.HTML})
	}
	return srcs
}

// savedRepo builds n generated resumes in memory and saves the repository
// into a fresh directory, which it returns with the built repository.
func savedRepo(t *testing.T, n int, seed int64) (string, *repository.Repository) {
	t.Helper()
	repo, err := testPipeline(t).BuildRepository(corpusSources(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := repo.Save(dir); err != nil {
		t.Fatal(err)
	}
	return dir, repo
}

func TestBenchFromRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("bench run skipped in -short")
	}
	dir, _ := savedRepo(t, 20, 1)
	out := filepath.Join(t.TempDir(), "BENCH_serve.json")
	err := run([]string{
		"-repo", dir, "-bench",
		"-clients", "4", "-duration", "300ms", "-swap-every", "100ms",
		"-out", out,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	f, err := obs.ReadBenchFile(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"ServeMixed/p50", "ServeMixed/p90", "ServeMixed/p99",
		"ServeMixed/mean", "ServeMixed/throughput",
		"ServeOverload/p99", "ServeOverload/goodput",
	} {
		res, ok := f.Benchmarks[name]
		if !ok || res.NsPerOp <= 0 || res.Iterations == 0 {
			t.Errorf("benchmark %s missing or empty: %+v", name, res)
		}
	}
	if f.Meta == nil || f.Meta.GoVersion == "" {
		t.Errorf("meta not stamped: %+v", f.Meta)
	}
}

func TestRepoSourceCheckpointRoundTrip(t *testing.T) {
	dir, repo := savedRepo(t, 12, 7)
	if repo.Len() == 0 {
		t.Fatal("corpus build produced empty repository")
	}
	loaded, err := repoSource(dir)()
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != repo.Len() {
		t.Fatalf("checkpoint round trip: %d docs, want %d", loaded.Len(), repo.Len())
	}
}

// TestRepoSourceOpensShardedBuild: `webrevd -repo` serves the DIR/final a
// sharded build writes, with the same names and canonical XML as the
// in-memory build's exported repository.
func TestRepoSourceOpensShardedBuild(t *testing.T) {
	p, srcs := testPipeline(t), corpusSources(12, 7)
	dir := t.TempDir()
	res, err := p.BuildShardedFrom(context.Background(), len(srcs), func(i int) (core.Source, error) {
		return srcs[i], nil
	}, core.ShardOptions{Shards: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Repo.Store().Close(); err != nil {
		t.Fatal(err)
	}
	loaded, err := repoSource(filepath.Join(dir, "final"))()
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.BuildRepository(srcs)
	if err != nil || want.Len() == 0 {
		t.Fatalf("in-memory build: %v", err)
	}
	if got, want := strings.Join(loaded.Names(), ","), strings.Join(want.Names(), ","); got != want {
		t.Fatalf("names differ:\n got %s\nwant %s", got, want)
	}
	for i := 0; i < want.Len(); i++ {
		got, _ := loaded.Store().XML(i)
		exp, _ := want.Store().XML(i)
		if !bytes.Equal(got, exp) {
			t.Fatalf("document %d differs from the in-memory build", i)
		}
	}
}

func TestLoadDrift(t *testing.T) {
	dir := t.TempDir()
	if _, err := loadDrift(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing drift file accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadDrift(bad); err == nil {
		t.Fatal("malformed drift file accepted")
	}
	future := filepath.Join(dir, "future.json")
	if err := os.WriteFile(future, []byte(`{"version":99,"cycle":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadDrift(future); err == nil {
		t.Fatal("unknown drift version accepted")
	}
	good := filepath.Join(dir, "drift.json")
	blob, err := json.Marshal(&schema.Drift{Version: schema.DriftVersion, Cycle: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(good, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := loadDrift(good)
	if err != nil {
		t.Fatal(err)
	}
	if d.Cycle != 5 || d.Version != schema.DriftVersion {
		t.Fatalf("drift round-trip: %+v", d)
	}
}
