package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"webrev/internal/faultinject"
	"webrev/internal/obs"
	"webrev/internal/repository"
	"webrev/internal/schema"
	"webrev/internal/xmlout"
)

// renderDiskRepo flattens a stored repository (any Store backing) to its
// deterministic text artifacts, mirroring renderRepo for built ones.
func renderDiskRepo(t *testing.T, r *repository.Repository) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(r.DTD().Render())
	for i := 0; i < r.Len(); i++ {
		b.WriteString(r.Store().Name(i))
		b.WriteString("\n")
		xml, err := r.Store().XML(i)
		if err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		b.Write(xml)
	}
	return b.String()
}

// singleProcessRepo is the reference output: the batch in-memory build
// exported to a repository.
func singleProcessRepo(t *testing.T, sources []Source) *repository.Repository {
	t.Helper()
	repo, err := resumePipeline(t).BuildRepository(sources)
	if err != nil {
		t.Fatal(err)
	}
	return repo
}

// sourceAt is the BuildShardedFrom provider over an in-memory corpus.
func sourceAt(sources []Source) func(int) (Source, error) {
	return func(i int) (Source, error) { return sources[i], nil }
}

// TestShardRangePartition: shard ranges are a contiguous partition of
// [0, n) in shard order, for every split.
func TestShardRangePartition(t *testing.T) {
	for _, n := range []int{1, 2, 7, 16, 100, 101} {
		for shards := 1; shards <= 9 && shards <= n; shards++ {
			next := 0
			for i := 0; i < shards; i++ {
				start, end := shardRange(n, shards, i)
				if start != next || end < start {
					t.Fatalf("n=%d shards=%d: shard %d range [%d,%d), want start %d", n, shards, i, start, end, next)
				}
				next = end
			}
			if next != n {
				t.Fatalf("n=%d shards=%d: ranges cover [0,%d), want [0,%d)", n, shards, next, n)
			}
		}
	}
}

// TestBuildShardedMatchesBuild is the tentpole contract: 2-shard and
// 8-shard disk-backed builds produce a repository, DTD, and conformed XML
// byte-identical to the single-process in-memory build — and a re-run over
// the same directory (which resumes every shard's completed state) again.
func TestBuildShardedMatchesBuild(t *testing.T) {
	sources := streamSources(30, 17)
	want := renderDiskRepo(t, singleProcessRepo(t, sources))

	for _, shards := range []int{1, 2, 8} {
		dir := t.TempDir()
		for pass, label := range []string{"fresh", "rerun"} {
			res, err := resumePipeline(t).BuildShardedFrom(context.Background(), len(sources), sourceAt(sources), ShardOptions{
				Shards:          shards,
				Dir:             dir,
				CheckpointEvery: 5,
			})
			if err != nil {
				t.Fatalf("shards=%d %s: %v", shards, label, err)
			}
			if got := renderDiskRepo(t, res.Repo); got != want {
				t.Fatalf("shards=%d %s: sharded output differs from single-process build", shards, label)
			}
			if res.TotalInput != len(sources) || len(res.Quarantined) != 0 {
				t.Fatalf("shards=%d %s: input %d, quarantined %d", shards, label, res.TotalInput, len(res.Quarantined))
			}
			if err := res.Repo.Store().Close(); err != nil {
				t.Fatal(err)
			}
			// The final directory is a self-contained disk repository.
			if pass == 0 {
				reloaded, err := repository.LoadDisk(dir+"/final", repository.DiskOptions{})
				if err != nil {
					t.Fatalf("shards=%d: LoadDisk: %v", shards, err)
				}
				if got := renderDiskRepo(t, reloaded); got != want {
					t.Fatalf("shards=%d: LoadDisk output differs", shards)
				}
				reloaded.Store().Close()
			}
		}
	}
}

// TestBuildShardedKeepsNamesAndValuesVerbatim: a sharded build reads its
// conv/ stores verbatim, so a prefixed attribute name and a CR in a val
// reach the final store exactly as BuildFromStats writes them from the
// same trees. The converter emits neither shape (its elements carry only
// val), so the test seeds both straight into two finished shard
// checkpoints and lets the build resume from them.
func TestBuildShardedKeepsNamesAndValuesVerbatim(t *testing.T) {
	sources := streamSources(12, 5)
	p := resumePipeline(t)
	acc := schema.NewAccumulator(0)
	docs := make([]*Document, len(sources))
	for i, s := range sources {
		docs[i] = convertOne(t, p, s)
		if i%2 == 0 {
			docs[i].XML.SetAttr("x:y", "1")
		} else {
			docs[i].XML.AppendVal("a\rb")
		}
		acc.Add(i, p.ExtractPaths(docs[i]))
	}
	ref, err := p.BuildFromStats(context.Background(), docs, acc)
	if err != nil {
		t.Fatal(err)
	}
	want := renderRepo(ref)
	if !strings.Contains(want, ` x:y="1"`) || !strings.Contains(want, "a\rb") {
		t.Fatal("the reference build lost the seeded name or CR")
	}

	const shards = 2
	dir := t.TempDir()
	for sh := 0; sh < shards; sh++ {
		start, end := shardRange(len(docs), shards, sh)
		conv, err := repository.CreateDiskStore(filepath.Join(shardDir(dir, sh), "conv"), repository.DiskOptions{MaxResidentDocs: -1})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range docs[start:end] {
			if err := conv.Append(d.Source, d.XML); err != nil {
				t.Fatal(err)
			}
		}
		if err := conv.Close(); err != nil {
			t.Fatal(err)
		}
		st, err := json.Marshal(shardState{Version: shardStateVersion, Start: start, End: end, Done: end - start, Stored: end - start})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(shardDir(dir, sh), shardStateFile), st, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	res, err := p.BuildShardedFrom(context.Background(), len(sources), func(i int) (Source, error) {
		return Source{}, fmt.Errorf("source %d read, but every shard had finished converting", i)
	}, ShardOptions{Shards: shards, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Repo.Store().Close()
	if got := renderDiskRepo(t, res.Repo); got != want {
		t.Fatalf("2-shard output differs from BuildFromStats':\n%s\nwant\n%s", got, want)
	}
}

// TestBuildShardedConceptNamedMarkup: a page holding an HTML element named
// like a concept, with an attribute whose name is not an XML name, builds.
// The converter once kept the element's HTML attributes, so the stored
// document failed to decode and the whole build failed in its map phase.
func TestBuildShardedConceptNamedMarkup(t *testing.T) {
	sources := []Source{
		{Name: "a.html", HTML: `<html><body><h1>Jane Doe</h1><h2>Education</h2><ul><li>MIT, B.S., June 1999</li></ul></body></html>`},
		{Name: "b.html", HTML: `<html><body><h1>John Roe</h1><EduCAtion! x="1">Stanford University, M.S., 1998</EduCAtion!></body></html>`},
	}
	want := renderDiskRepo(t, singleProcessRepo(t, sources))
	res, err := resumePipeline(t).BuildShardedFrom(context.Background(), len(sources), sourceAt(sources), ShardOptions{Shards: 1, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Repo.Store().Close()
	if got := renderDiskRepo(t, res.Repo); got != want {
		t.Fatalf("sharded output differs from BuildRepository's:\n%s\nwant\n%s", got, want)
	}
	if !strings.Contains(want, `<education val="1998">`) {
		t.Fatalf("the concept-named element lost its val or kept an HTML attribute:\n%s", want)
	}
}

// TestBuildShardedKillResume kills one shard mid-convert (after its last
// checkpoint) and checks the next build over the same directory resumes
// from the checkpoint and still produces byte-identical output.
func TestBuildShardedKillResume(t *testing.T) {
	sources := streamSources(30, 17)
	want := renderDiskRepo(t, singleProcessRepo(t, sources))
	dir := t.TempDir()

	coll := obs.NewCollector()
	p, err := New(streamConfig(coll, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.BuildShardedFrom(context.Background(), len(sources), sourceAt(sources), ShardOptions{
		Shards:          2,
		Dir:             dir,
		CheckpointEvery: 4,
		kill: func(shard, done int) bool {
			// Die between checkpoints, so the unflushed tail of the segment
			// is lost and resume must truncate back to the checkpoint.
			return shard == 1 && done == 7
		},
	})
	if !errors.Is(err, errShardKilled) {
		t.Fatalf("killed build returned %v, want errShardKilled", err)
	}

	res, err := p.BuildShardedFrom(context.Background(), len(sources), sourceAt(sources), ShardOptions{
		Shards:          2,
		Dir:             dir,
		CheckpointEvery: 4,
	})
	if err != nil {
		t.Fatalf("resumed build: %v", err)
	}
	defer res.Repo.Store().Close()
	if got := renderDiskRepo(t, res.Repo); got != want {
		t.Fatal("kill+resume output differs from single-process build")
	}
	if got := coll.Snapshot().Counters[obs.CtrShardsResumed]; got < 1 {
		t.Fatalf("shard.resumed = %d, want >= 1", got)
	}
}

// TestBuildShardedEvictionIdentical: a 1-document LRU cap on every decoded
// read path never changes build output, and the resulting repository still
// answers queries identically to the in-memory one.
func TestBuildShardedEvictionIdentical(t *testing.T) {
	sources := streamSources(20, 23)
	single := singleProcessRepo(t, sources)
	want := renderDiskRepo(t, single)

	res, err := resumePipeline(t).BuildShardedFrom(context.Background(), len(sources), sourceAt(sources), ShardOptions{
		Shards: 2,
		Dir:    t.TempDir(),
		Store:  repository.DiskOptions{MaxResidentDocs: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Repo.Store().Close()
	if got := renderDiskRepo(t, res.Repo); got != want {
		t.Fatal("1-doc LRU cap changed build output")
	}
	// Query through the path index (which decodes every document through
	// the 1-doc LRU) and compare counts against the in-memory repository.
	for _, expr := range []string{"//name", "//education//degree", "//skill"} {
		got, err := res.Repo.Count(expr)
		if err != nil {
			t.Fatal(err)
		}
		wantN, err := single.Count(expr)
		if err != nil {
			t.Fatal(err)
		}
		if got != wantN {
			t.Fatalf("query %q: %d matches on disk repo, %d in memory", expr, got, wantN)
		}
	}
}

// TestBuildShardedChaosQuarantine: injected conversion faults quarantine
// documents in the sharded build exactly as in the single-process build,
// and the surviving output stays byte-identical.
func TestBuildShardedChaosQuarantine(t *testing.T) {
	sources := chaosSources(40, 21)
	newInjector := func() *faultinject.Stage {
		return faultinject.NewStage(faultinject.StageConfig{
			Seed:   1,
			Rate:   0.2,
			Stages: []string{obs.StageConvert},
		})
	}
	cfg := chaosConfig(newInjector(), nil)
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.BuildShardedFrom(context.Background(), len(sources), sourceAt(sources), ShardOptions{
		Shards:          4,
		Dir:             t.TempDir(),
		CheckpointEvery: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Repo.Store().Close()
	if len(res.Quarantined) == 0 {
		t.Fatal("injector fired no faults; test is vacuous")
	}

	singleCfg := chaosConfig(newInjector(), nil)
	sp, err := New(singleCfg)
	if err != nil {
		t.Fatal(err)
	}
	single, err := sp.BuildRepository(sources)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderDiskRepo(t, res.Repo), renderDiskRepo(t, single); got != want {
		t.Fatal("sharded chaos output differs from single-process chaos build")
	}
}

// TestDiskStoreRoundTripsGoldenCorpus: every converted document of the
// golden corpus — including documents degraded by resource limits — stores
// and reloads byte-identically through the disk store.
func TestDiskStoreRoundTripsGoldenCorpus(t *testing.T) {
	sources := streamSources(12, 99) // the golden corpus parameters
	cfg := streamConfig(nil, 0, 0)
	cfg.Limits = Limits{MaxTokens: 60} // force at least one degraded doc
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, err := repository.CreateDiskStore(dir, repository.DiskOptions{MaxResidentDocs: 1})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	degraded := 0
	for i, s := range sources {
		d, deg, failed := p.ConvertSource(s)
		if failed != nil {
			t.Fatalf("%s: %v", s.Name, failed)
		}
		if deg != nil {
			degraded++
		}
		xml := []byte(xmlout.Marshal(d.XML))
		want = append(want, xml)
		if err := store.AppendXML(fmt.Sprintf("doc-%d", i), xml); err != nil {
			t.Fatal(err)
		}
	}
	if degraded == 0 {
		t.Fatal("no degraded documents; tighten Limits so the test covers them")
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	store, err = repository.OpenDiskStore(dir, repository.DiskOptions{MaxResidentDocs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	for i, w := range want {
		got, err := store.XML(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, w) {
			t.Fatalf("doc %d raw bytes differ after reload", i)
		}
		root, err := store.Doc(i)
		if err != nil {
			t.Fatal(err)
		}
		if xmlout.Marshal(root) != string(w) {
			t.Fatalf("doc %d decode+marshal differs after reload", i)
		}
	}
}

// TestBuildShardedLazySources: the BuildShardedFrom provider is called
// lazily per index and the output matches the eager slice path.
func TestBuildShardedLazySources(t *testing.T) {
	sources := streamSources(15, 31)
	want := renderDiskRepo(t, singleProcessRepo(t, sources))
	var calls int64
	res, err := resumePipeline(t).BuildShardedFrom(context.Background(), len(sources), func(i int) (Source, error) {
		atomic.AddInt64(&calls, 1)
		return sources[i], nil
	}, ShardOptions{Shards: 3, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Repo.Store().Close()
	if got := renderDiskRepo(t, res.Repo); got != want {
		t.Fatal("lazy-source sharded build differs from single-process build")
	}
	if calls != int64(len(sources)) {
		t.Fatalf("provider called %d times, want %d", calls, len(sources))
	}
}

// TestBuildShardedConformanceCounts: a sharded build reports the same
// total mapping cost and the same count of documents that conformed
// before mapping as the in-memory build of the same sources.
func TestBuildShardedConformanceCounts(t *testing.T) {
	const (
		one = `<html><body>Jane Doe<h2>Skills</h2><p>Java</p></body></html>`
		two = `<html><body>John Roe<h2>Skills</h2><p>Java, SQL</p></body></html>`
	)
	var sources []Source
	for i, html := range []string{one, one, two, one, two, one, one} {
		sources = append(sources, Source{Name: fmt.Sprintf("doc-%d", i), HTML: html})
	}
	mem, err := resumePipeline(t).Build(sources)
	if err != nil {
		t.Fatal(err)
	}
	conforming := 0
	for _, st := range mem.MapStats {
		if st.Cost() == 0 {
			conforming++
		}
	}
	if conforming == 0 || conforming == len(sources) {
		t.Fatalf("fixture: %d of %d documents conform before mapping, want a mix", conforming, len(sources))
	}
	res, err := resumePipeline(t).BuildShardedFrom(context.Background(), len(sources), sourceAt(sources), ShardOptions{Shards: 3, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Repo.Store().Close()
	if res.Conforming != conforming || res.TotalMapCost != mem.TotalMapCost() {
		t.Fatalf("sharded: %d conforming, cost %d; in-memory: %d conforming, cost %d",
			res.Conforming, res.TotalMapCost, conforming, mem.TotalMapCost())
	}
}
