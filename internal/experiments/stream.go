package experiments

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"webrev/internal/concept"
	"webrev/internal/core"
	"webrev/internal/corpus"
	"webrev/internal/crawler"
	"webrev/internal/obs"
	"webrev/internal/xmlout"
)

// ---------------------------------------------------------------------------
// E9: streaming crawl-and-build vs batch crawl-then-build (beyond the paper)
// ---------------------------------------------------------------------------

// fetchDelay is the simulated per-request network latency of the E9 site.
// The paper's crawler ran against the live 2001 Web; on a loopback server
// fetches are near-free, so a fixed delay restores the property the
// streaming build exploits — that acquisition is I/O-bound, leaving idle
// cycles the overlapped conversion can fill.
const fetchDelay = 30 * time.Millisecond

// StreamComparisonResult measures the tentpole claim of the streaming
// build: crawling and building concurrently (AcquireStream + BuildStream,
// no intermediate corpus) finishes no later than crawling to completion and
// then batch-building, while holding at most the in-flight cap of
// documents and producing byte-identical output.
type StreamComparisonResult struct {
	Docs      int
	SitePages int
	// BatchCrawl, BatchBuild and BatchTotal time the sequential path:
	// crawl the whole site, then run Pipeline.Build over the materialized
	// corpus.
	BatchCrawl time.Duration
	BatchBuild time.Duration
	BatchTotal time.Duration
	// StreamTotal times the overlapped path end to end.
	StreamTotal time.Duration
	// Identical is true when both paths produced byte-identical DTDs and
	// conformed documents.
	Identical bool
	// PeakInFlight and Shards are the streaming build's bounded-memory
	// gauges: the high-water mark of in-flight documents and the number of
	// convert workers (obs.GaugeStreamShards).
	PeakInFlight int64
	Shards       int64
	// Snapshot is the streaming run's full stage profile plus the e9.*
	// wall-clock entries (what -metrics FILE writes; per-layer benchmark
	// numbers come from `bash perfbench/run.sh --trace 1`).
	Snapshot *obs.Snapshot
}

// RunStreamComparison serves nDocs generated resumes (plus distractors)
// with simulated fetch latency, runs the batch crawl-then-build and the
// streaming crawl-and-build over the same site, and compares wall clocks
// and outputs. coll, when non-nil, receives the streaming run's stage
// events and the headline e9.* durations; nil uses a fresh collector.
func RunStreamComparison(nDocs int, seed int64, coll *obs.Collector) (StreamComparisonResult, error) {
	g := corpus.New(corpus.Options{Seed: seed})
	var off []string
	for i := 0; i < 5; i++ {
		off = append(off, g.Distractor())
	}
	site := crawler.BuildSite(g.Corpus(nDocs), off)
	srv := httptest.NewServer(delayed(site.Handler(), fetchDelay))
	defer srv.Close()
	seedURL := srv.URL + "/"

	if coll == nil {
		coll = obs.NewCollector()
	}
	mkCrawler := func(tr obs.Tracer) *crawler.Crawler {
		return &crawler.Crawler{Workers: 8, Filter: crawler.ResumeFilter(3), Tracer: tr}
	}
	mkPipeline := func(tr obs.Tracer) (*core.Pipeline, error) {
		return core.New(core.Config{
			Concepts:    concept.ResumeConcepts(),
			Constraints: concept.ResumeConstraints(),
			RootName:    "resume",
			Tracer:      tr,
			// The in-flight cap must at least cover one crawler fetch window
			// (workers * 4), or backpressure stalls the crawl on bursts and
			// the overlap the streaming path exists for never happens.
			MaxInFlight: 128,
		})
	}
	res := StreamComparisonResult{Docs: nDocs, SitePages: site.PageCount()}
	ctx := context.Background()

	// Both paths run several times, interleaved, and the fastest trial of
	// each counts — the usual best-of-N discipline, which keeps one badly
	// timed GC pause from deciding the comparison. The last streaming trial
	// carries the tracer, so the snapshot profiles exactly one streaming
	// run.
	const trials = 3
	var batch, repo *core.Repository
	for trial := 0; trial < trials; trial++ {
		// Batch path: crawl everything, then build. Each timed path starts
		// from a collected heap so one trial's garbage is not another
		// trial's pause.
		runtime.GC()
		t0 := time.Now()
		sources, _, err := core.Acquire(ctx, mkCrawler(nil), seedURL)
		if err != nil {
			return res, fmt.Errorf("batch crawl: %w", err)
		}
		crawl := time.Since(t0)
		bp, err := mkPipeline(nil)
		if err != nil {
			return res, err
		}
		t1 := time.Now()
		batch, err = bp.Build(sources)
		if err != nil {
			return res, fmt.Errorf("batch build: %w", err)
		}
		if total := time.Since(t0); trial == 0 || total < res.BatchTotal {
			res.BatchCrawl, res.BatchBuild, res.BatchTotal = crawl, time.Since(t1), total
		}

		// Streaming path: the crawl feeds the pipeline as it runs.
		var tr obs.Tracer
		if trial == trials-1 {
			tr = coll
		}
		sp, err := mkPipeline(tr)
		if err != nil {
			return res, err
		}
		runtime.GC()
		t2 := time.Now()
		ch, wait := core.AcquireStream(ctx, mkCrawler(tr), seedURL)
		repo, err = sp.BuildStream(ctx, ch)
		if err != nil {
			return res, fmt.Errorf("streaming build: %w", err)
		}
		if _, err := wait(); err != nil {
			return res, fmt.Errorf("streaming crawl: %w", err)
		}
		if total := time.Since(t2); trial == 0 || total < res.StreamTotal {
			res.StreamTotal = total
		}
	}

	res.Identical = sameRepository(batch, repo)
	res.PeakInFlight = coll.Gauge(obs.GaugeStreamInFlightPeak)
	res.Shards = coll.Gauge(obs.GaugeStreamShards)
	coll.Observe("e9.batch.crawl", res.BatchCrawl)
	coll.Observe("e9.batch.build", res.BatchBuild)
	coll.Observe("e9.batch.total", res.BatchTotal)
	coll.Observe("e9.stream.total", res.StreamTotal)
	res.Snapshot = coll.Snapshot()
	return res, nil
}

// delayed wraps h with a fixed per-request latency.
func delayed(h http.Handler, d time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(d)
		h.ServeHTTP(w, r)
	})
}

// sameRepository reports whether two builds produced byte-identical DTDs
// and conformed documents, in order.
func sameRepository(a, b *core.Repository) bool {
	if a.DTD.Render() != b.DTD.Render() || len(a.Conformed) != len(b.Conformed) {
		return false
	}
	for i := range a.Conformed {
		if a.Docs[i].Source != b.Docs[i].Source ||
			xmlout.Marshal(a.Conformed[i]) != xmlout.Marshal(b.Conformed[i]) {
			return false
		}
	}
	return true
}

// Report renders the E9 result.
func (r StreamComparisonResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E9 — Streaming crawl-and-build vs batch crawl-then-build\n")
	fmt.Fprintf(&b, "  site: %d pages (%d resumes), %v simulated fetch latency\n",
		r.SitePages, r.Docs, fetchDelay)
	fmt.Fprintf(&b, "  batch:  crawl %v + build %v = %v\n",
		r.BatchCrawl.Round(time.Millisecond), r.BatchBuild.Round(time.Millisecond),
		r.BatchTotal.Round(time.Millisecond))
	fmt.Fprintf(&b, "  stream: %v overlapped (peak in-flight %d, %d convert workers)\n",
		r.StreamTotal.Round(time.Millisecond), r.PeakInFlight, r.Shards)
	if r.StreamTotal > 0 {
		fmt.Fprintf(&b, "  speedup %.2fx; outputs identical: %v\n",
			float64(r.BatchTotal)/float64(r.StreamTotal), r.Identical)
	}
	return b.String()
}
