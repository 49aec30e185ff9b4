package core

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"webrev/internal/concept"
	"webrev/internal/corpus"
	"webrev/internal/crawler"
	"webrev/internal/obs"
	"webrev/internal/xmlout"
)

func streamSources(n int, seed int64) []Source {
	g := corpus.New(corpus.Options{Seed: seed})
	var sources []Source
	for _, r := range g.Corpus(n) {
		sources = append(sources, Source{Name: r.Name, HTML: r.HTML})
	}
	return sources
}

// renderRepo flattens a repository to its deterministic text artifacts.
func renderRepo(r *Repository) string {
	var b strings.Builder
	b.WriteString(r.DTD.Render())
	for i, c := range r.Conformed {
		b.WriteString(r.Docs[i].Source)
		b.WriteString("\n")
		b.WriteString(xmlout.Marshal(c))
	}
	return b.String()
}

func streamConfig(tr obs.Tracer, parallelism, maxInFlight int) Config {
	return Config{
		Concepts:    concept.ResumeConcepts(),
		Constraints: concept.ResumeConstraints(),
		RootName:    "resume",
		Parallelism: parallelism,
		MaxInFlight: maxInFlight,
		Tracer:      tr,
	}
}

// TestBuildStreamMatchesBuild is the streaming build's core contract: fed
// the same sources in the same order, BuildStream's DTD and conformed
// repository are byte-identical to batch Build's, across worker counts and
// in-flight caps.
func TestBuildStreamMatchesBuild(t *testing.T) {
	sources := streamSources(30, 17)
	batch, err := resumePipeline(t).Build(sources)
	if err != nil {
		t.Fatal(err)
	}
	want := renderRepo(batch)

	for _, tc := range []struct{ parallelism, cap int }{
		{1, 1}, {2, 3}, {4, 8}, {0, 0}, {8, 2},
	} {
		p, err := New(streamConfig(nil, tc.parallelism, tc.cap))
		if err != nil {
			t.Fatal(err)
		}
		repo, err := p.BuildStream(context.Background(), SourceChan(sources))
		if err != nil {
			t.Fatalf("parallelism=%d cap=%d: %v", tc.parallelism, tc.cap, err)
		}
		if got := renderRepo(repo); got != want {
			t.Errorf("parallelism=%d cap=%d: streaming repository differs from batch",
				tc.parallelism, tc.cap)
		}
		if repo.Schema.Docs != len(sources) {
			t.Errorf("schema.Docs = %d, want %d", repo.Schema.Docs, len(sources))
		}
	}
}

// TestBuildStreamInFlightBounded runs a streaming build with a tight cap
// and asserts the peak in-flight gauge never exceeded it.
func TestBuildStreamInFlightBounded(t *testing.T) {
	coll := obs.NewCollector()
	p, err := New(streamConfig(coll, 8, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.BuildStream(context.Background(), SourceChan(streamSources(40, 5))); err != nil {
		t.Fatal(err)
	}
	snap := coll.Snapshot()
	peak := snap.Gauges[obs.GaugeStreamInFlightPeak]
	if peak < 1 || peak > 3 {
		t.Fatalf("peak in-flight = %d, want within (0, 3]", peak)
	}
	if cur := snap.Gauges[obs.GaugeStreamInFlight]; cur != 0 {
		t.Fatalf("in-flight gauge = %d after build, want 0", cur)
	}
	if shards := snap.Gauges[obs.GaugeStreamShards]; shards != 3 {
		// Workers are clamped down to the cap.
		t.Fatalf("shards gauge = %d, want 3", shards)
	}
	if st, ok := snap.Stages[obs.StageMerge]; !ok || st.Count != 1 {
		t.Fatalf("merge stage not recorded: %+v ok=%v", st, ok)
	}
}

// TestBuildStreamCancel cancels mid-stream and expects the context error;
// the producer goroutine must not leak (the test finishes).
func TestBuildStreamCancel(t *testing.T) {
	p, err := New(streamConfig(nil, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	sources := streamSources(10, 3)
	in := make(chan Source)
	go func() {
		for i, s := range sources {
			if i == 4 {
				cancel()
				return // producer abandons the stream; channel never closes
			}
			in <- s
		}
	}()
	if _, err := p.BuildStream(ctx, in); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestBuildStreamEmpty mirrors Build's empty-corpus error.
func TestBuildStreamEmpty(t *testing.T) {
	p := resumePipeline(t)
	if _, err := p.BuildStream(context.Background(), SourceChan(nil)); err == nil {
		t.Fatal("empty stream should error like an empty corpus")
	}
}

// TestExtractPathsOnce is the regression test for the hoisted extraction
// pass: mining twice over the same converted documents must not re-extract
// — the obs counter records each document's paths exactly once.
func TestExtractPathsOnce(t *testing.T) {
	coll := obs.NewCollector()
	p, err := New(streamConfig(coll, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	docs := p.ConvertAll(streamSources(10, 4))
	s1 := p.DiscoverSchema(docs)
	afterFirst := coll.Counter(obs.CtrPathsExtracted)
	if afterFirst == 0 {
		t.Fatal("first mine extracted nothing")
	}
	if st := coll.Snapshot().Stages[obs.StageExtract]; st.Count != 10 {
		t.Fatalf("extract spans = %d, want one per document (10)", st.Count)
	}
	s2 := p.DiscoverSchema(docs)
	if got := coll.Counter(obs.CtrPathsExtracted); got != afterFirst {
		t.Fatalf("second mine re-extracted: counter %d -> %d", afterFirst, got)
	}
	if st := coll.Snapshot().Stages[obs.StageExtract]; st.Count != 10 {
		t.Fatalf("extract spans after second mine = %d, want 10", st.Count)
	}
	if s1.String() != s2.String() {
		t.Fatal("repeated mining over cached paths changed the schema")
	}
}

// TestAcquireStreamFeedsBuildStream wires the streaming acquisition into
// the streaming build over the in-memory site and checks it matches the
// batch crawl-then-build result.
func TestAcquireStreamFeedsBuildStream(t *testing.T) {
	g := corpus.New(corpus.Options{Seed: 31})
	site := crawler.BuildSite(g.Corpus(12), []string{g.Distractor(), g.Distractor()})
	srv := httptest.NewServer(site.Handler())
	defer srv.Close()
	newCrawler := func() *crawler.Crawler {
		return &crawler.Crawler{Workers: 4, Filter: crawler.ResumeFilter(3)}
	}

	sources, _, err := Acquire(context.Background(), newCrawler(), srv.URL+"/")
	if err != nil {
		t.Fatal(err)
	}
	batch, err := resumePipeline(t).Build(sources)
	if err != nil {
		t.Fatal(err)
	}

	ch, wait := AcquireStream(context.Background(), newCrawler(), srv.URL+"/")
	repo, err := resumePipeline(t).BuildStream(context.Background(), ch)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := wait()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fetched != site.PageCount() {
		t.Fatalf("streaming crawl fetched %d of %d", rep.Fetched, site.PageCount())
	}
	if len(repo.Docs) != 12 {
		t.Fatalf("streamed %d docs, want the 12 on-topic resumes", len(repo.Docs))
	}
	if renderRepo(repo) != renderRepo(batch) {
		t.Fatal("streaming crawl-and-build differs from batch crawl-then-build")
	}
}

// TestAcquireStreamCanceled cancels the crawl before it starts; the source
// channel must close and wait must surface the context error without the
// consumer hanging.
func TestAcquireStreamCanceled(t *testing.T) {
	g := corpus.New(corpus.Options{Seed: 33})
	site := crawler.BuildSite(g.Corpus(5), nil)
	srv := httptest.NewServer(site.Handler())
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ch, wait := AcquireStream(ctx, &crawler.Crawler{Filter: crawler.ResumeFilter(3)}, srv.URL+"/")
	for range ch {
		t.Fatal("canceled acquisition emitted a source")
	}
	rep, err := wait()
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil || !rep.Canceled {
		t.Fatalf("report missing cancellation: %v", rep)
	}
}
