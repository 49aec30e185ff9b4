// Command crawl demonstrates the acquisition path of the paper's system: it
// serves a generated resume site on localhost, crawls it with the topical
// crawler, and reports which pages passed the resume filter plus a crawl
// report (fetched/failed/retried/skipped, error classes, bytes, wall time).
//
// The fetch layer is fault tolerant: per-request timeouts, bounded retries
// with exponential backoff for transient failures, an error budget, and
// Ctrl-C cancellation. With -fault-rate > 0 the served site is wrapped in
// the deterministic fault-injection middleware so the robustness machinery
// can be watched working.
//
// Usage:
//
//	crawl [-n 30] [-distractors 10] [-seed 1] [-workers 8]
//	      [-timeout 10s] [-retries 2] [-max-pages 0] [-max-failures 0]
//	      [-fault-rate 0] [-fault-seed 1]
//	      [-stream] [-inflight 0] [-checkpoint dir] [-quarantine dir]
//	      [-metrics snap.json] [-pprof addr]
//
// With -stream the crawl feeds the full pipeline as it runs (crawl-and-
// build): on-topic pages stream through conversion and mergeable schema
// statistics while the crawler is still fetching, the DTD is derived once
// the crawl ends, and the conformed repository is reported — without ever
// materializing the intermediate corpus. -inflight caps how many documents
// the streaming build holds at once (its backpressure bound; 0 picks the
// default of 4x the conversion workers). With -checkpoint DIR the
// streaming build keeps its shard checkpoint there (state.json plus the
// conv/ segment of converted documents), a rerun after Ctrl-C resumes
// instead of restarting, and `webrev watch -checkpoint DIR` can seed a
// watch from it; -quarantine DIR persists documents the build dropped, for
// `webrev quarantine`. See ARCHITECTURE.md §4.
//
// -metrics FILE writes a JSON snapshot of the run's stage timing and
// counters (the same format the pipeline's observability layer emits);
// -pprof ADDR serves /debug/pprof, /debug/vars and /metrics on ADDR while
// the crawl runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"time"

	"webrev/internal/concept"
	"webrev/internal/core"
	"webrev/internal/corpus"
	"webrev/internal/crawler"
	"webrev/internal/faultinject"
	"webrev/internal/obs"
)

type options struct {
	n           int
	distractors int
	seed        int64
	workers     int
	timeout     time.Duration
	retries     int
	maxPages    int
	maxFailures int
	faultRate   float64
	faultSeed   int64
	stream      bool
	inFlight    int
	checkpoint  string
	quarantine  string
	metricsOut  string
	pprofAddr   string
}

func main() {
	var o options
	flag.IntVar(&o.n, "n", 30, "resumes on the site")
	flag.IntVar(&o.distractors, "distractors", 10, "off-topic pages on the site")
	flag.Int64Var(&o.seed, "seed", 1, "corpus seed")
	flag.IntVar(&o.workers, "workers", 8, "concurrent fetches (fixed worker pool)")
	flag.DurationVar(&o.timeout, "timeout", 10*time.Second, "per-request timeout")
	flag.IntVar(&o.retries, "retries", 2, "retries per URL for transient failures (negative disables)")
	flag.IntVar(&o.maxPages, "max-pages", 0, "page budget (0 = crawler default)")
	flag.IntVar(&o.maxFailures, "max-failures", 0, "error budget: stop after this many failed URLs (0 = unlimited)")
	flag.Float64Var(&o.faultRate, "fault-rate", 0, "inject transient faults on this fraction of paths (demo)")
	flag.Int64Var(&o.faultSeed, "fault-seed", 1, "fault-injection seed")
	flag.BoolVar(&o.stream, "stream", false, "crawl-and-build: stream on-topic pages through the full pipeline while crawling")
	flag.IntVar(&o.inFlight, "inflight", 0, "streaming build's in-flight document cap (0 = 4x conversion workers)")
	flag.StringVar(&o.checkpoint, "checkpoint", "", "with -stream: snapshot build state to this directory and resume from it on rerun")
	flag.StringVar(&o.quarantine, "quarantine", "", "persist documents the build quarantined to this directory (see `webrev quarantine`)")
	flag.StringVar(&o.metricsOut, "metrics", "", "write a JSON metrics snapshot of the crawl to this file")
	flag.StringVar(&o.pprofAddr, "pprof", "", "serve /debug/pprof, /debug/vars and /metrics on this address during the crawl")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, o); err != nil {
		fmt.Fprintln(os.Stderr, "crawl:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, o options) error {
	g := corpus.New(corpus.Options{Seed: o.seed})
	var off []string
	for i := 0; i < o.distractors; i++ {
		off = append(off, g.Distractor())
	}
	site := crawler.BuildSite(g.Corpus(o.n), off)

	handler := http.Handler(site.Handler())
	var inj *faultinject.Injector
	if o.faultRate > 0 {
		inj = faultinject.New(handler, faultinject.Config{
			Seed: o.faultSeed,
			Rate: o.faultRate,
		})
		handler = inj
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	srv := &http.Server{Handler: handler}
	go srv.Serve(ln)
	defer srv.Close()

	seedURL := "http://" + ln.Addr().String() + "/"
	fmt.Printf("serving %d pages at %s\n", site.PageCount(), seedURL)
	if inj != nil {
		fmt.Printf("injecting transient faults on ~%.0f%% of paths (seed %d)\n",
			o.faultRate*100, o.faultSeed)
	}

	coll := obs.NewCollector()
	var tr obs.Tracer
	if o.metricsOut != "" || o.pprofAddr != "" || o.stream {
		tr = coll
	}
	if o.pprofAddr != "" {
		dbg, err := obs.ServeDebug(o.pprofAddr, coll)
		if err != nil {
			return err
		}
		defer dbg.Close()
		fmt.Printf("debug endpoint at http://%s/debug/pprof/ (metrics at /metrics)\n", dbg.Addr)
	}

	c := &crawler.Crawler{
		Workers:     o.workers,
		MaxPages:    o.maxPages,
		MaxFailures: o.maxFailures,
		Filter:      crawler.ResumeFilter(3),
		Fetch: crawler.FetchPolicy{
			Timeout:    o.timeout,
			MaxRetries: o.retries,
		},
		Tracer: tr,
	}
	writeMetrics := func() error {
		if o.metricsOut == "" {
			return nil
		}
		if err := coll.Snapshot().WriteFile(o.metricsOut); err != nil {
			return err
		}
		fmt.Printf("wrote metrics snapshot to %s\n", o.metricsOut)
		return nil
	}
	if o.stream {
		if err := runStream(ctx, o, c, seedURL, coll); err != nil {
			return err
		}
		if inj != nil {
			fmt.Printf("faults injected: %d %v\n", inj.Total(), inj.Injected())
		}
		return writeMetrics()
	}

	pages, rep, err := c.CrawlContext(ctx, seedURL)
	if err != nil {
		fmt.Printf("crawl ended early: %v\nreport: %s\n", err, rep)
		return writeMetrics()
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i].URL < pages[j].URL })
	onTopic := 0
	for _, p := range pages {
		mark := " "
		if p.OnTopic {
			mark = "*"
			onTopic++
		}
		trunc := ""
		if p.Truncated {
			trunc = " [truncated]"
		}
		fmt.Printf("  %s %s (%d bytes)%s\n", mark, p.URL, len(p.HTML), trunc)
	}
	fmt.Printf("fetched %d pages, %d on topic (marked *)\n", len(pages), onTopic)
	fmt.Printf("report: %s\n", rep)
	if tr != nil {
		fmt.Print(coll.Snapshot().Summary())
	}
	if inj != nil {
		fmt.Printf("faults injected: %d %v\n", inj.Total(), inj.Injected())
	}
	return writeMetrics()
}

// runStream is the crawl-and-build path: the crawler's on-topic pages feed
// the streaming pipeline while the crawl is still running, so no
// intermediate corpus is ever materialized.
func runStream(ctx context.Context, o options, c *crawler.Crawler, seedURL string, coll *obs.Collector) error {
	p, err := core.New(core.Config{
		Concepts:      concept.ResumeConcepts(),
		Constraints:   concept.ResumeConstraints(),
		RootName:      "resume",
		MaxInFlight:   o.inFlight,
		Tracer:        coll,
		CheckpointDir: o.checkpoint,
		QuarantineDir: o.quarantine,
	})
	if err != nil {
		return err
	}
	src, wait := core.AcquireStream(ctx, c, seedURL)
	repo, buildErr := p.BuildStream(ctx, src)
	rep, crawlErr := wait()
	fmt.Printf("report: %s\n", rep)
	if crawlErr != nil {
		fmt.Printf("crawl ended early: %v\n", crawlErr)
	}
	if buildErr != nil {
		fmt.Printf("streaming build ended early: %v\n", buildErr)
		return nil
	}
	snap := coll.Snapshot()
	fmt.Printf("crawled and built %d on-topic documents; schema %d paths; DTD %d elements\n",
		len(repo.Docs), len(repo.Schema.Paths()), repo.DTD.Len())
	if len(repo.Quarantined) > 0 {
		fmt.Printf("quarantined %d of %d documents (failure ratio %.1f%%)\n",
			len(repo.Quarantined), repo.TotalInput, repo.FailureRatio()*100)
	}
	fmt.Printf("peak in-flight documents %d (cap %d); %d conversion workers\n",
		snap.Gauges[obs.GaugeStreamInFlightPeak], snap.Gauges[obs.GaugeStreamInFlightCap], snap.Gauges[obs.GaugeStreamShards])
	fmt.Printf("pre-mapping conformance %.1f%%, total mapping cost %d edits\n",
		repo.ConformanceRate()*100, repo.TotalMapCost())
	fmt.Print(snap.Summary())
	fmt.Print(repo.DTD.Render())
	return nil
}
