// Command webrevd serves a webrev repository over HTTP: label-path
// queries, concept/instance lookups, document retrieval, and schema/DTD
// inspection, answered lock-free from an immutable snapshot that POST
// /api/reload swaps atomically under live traffic.
//
// The daemon is production-hardened: admission control sheds excess load
// with 503 + Retry-After (-max-inflight/-max-queue/-queue-wait), every
// request carries a deadline (-request-timeout, client-overridable with
// ?timeout= up to -max-request-timeout), handler panics become 500s
// without killing the process, the listener enforces header/write/idle
// timeouts and a header-size cap, and SIGTERM/SIGINT drain in-flight
// requests (up to -drain-timeout) before a clean exit 0. /healthz is
// liveness; /readyz is readiness (503 until the first snapshot installs
// and again while draining).
//
// Serve a repository directory — a disk store plus schema.dtd, as
// `webrev build -out DIR` writes it and as a sharded build leaves it in
// `-shard-dir WORK`/final. The directory is read strictly (every document
// checked against its SHA-256 and the DTD) into an in-memory snapshot:
//
//	webrevd -repo DIR [-addr :8077]
//	webrevd -repo WORK/final
//
// Or build one in-process from the synthetic corpus:
//
//	webrevd -corpus 200 [-seed 1]
//
// Or follow a repository directory that a continuous-operation watch loop
// (`webrev watch -out DIR`) rewrites each cycle — webrevd polls it,
// validates every candidate, swaps in good ones, and keeps serving the
// last good generation (with backoff) across corrupt or mid-write states:
//
//	webrevd -follow DIR [-follow-interval 2s]
//
// Bench mode stands the same server up on a loopback port, drives a mixed
// workload with -clients concurrent clients (swapping snapshots mid-load
// when -swap-every is set), then an overload pass at a deliberately tiny
// admission limit, and writes latency percentiles plus overload
// goodput/shed rows as a BENCH_serve.json that cmd/benchdiff gates:
//
//	webrevd -corpus 200 -bench -clients 64 -duration 3s -swap-every 500ms -out BENCH_serve.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"webrev/internal/concept"
	"webrev/internal/core"
	"webrev/internal/corpus"
	"webrev/internal/faultinject"
	"webrev/internal/obs"
	"webrev/internal/repository"
	"webrev/internal/schema"
	"webrev/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "webrevd:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("webrevd", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":8077", "listen address")
		repoDir    = fs.String("repo", "", "serve the repository in `DIR`, as webrev build -out writes it or a sharded build leaves it in WORK/final")
		corpusN    = fs.Int("corpus", 0, "build and serve a repository from this many generated resumes")
		followDir  = fs.String("follow", "", "follow a repository directory (e.g. `webrev watch -out DIR`): poll, validate, and swap in each good rewrite")
		followInt  = fs.Duration("follow-interval", 2*time.Second, "follow mode poll cadence (failure backoff doubles from here)")
		seed       = fs.Int64("seed", 1, "corpus generator seed")
		sup        = fs.Float64("sup", 0.5, "schema support threshold for -corpus builds")
		ratio      = fs.Float64("ratio", 0.1, "support-ratio threshold for -corpus builds")
		maxResults = fs.Int("max-results", 1000, "cap on results rendered per query request")
		driftFile  = fs.String("drift", "", "publish this drift report (JSON, as written by `webrev watch`) at /api/drift")
		metricsOut = fs.String("metrics", "", "write the obs metrics snapshot to this file when the daemon drains")

		// Overload & robustness knobs (see ARCHITECTURE.md, "Overload & drain").
		maxInFlight   = fs.Int("max-inflight", 256, "admitted /api requests executing concurrently (0 = unlimited)")
		maxQueue      = fs.Int("max-queue", 0, "requests waiting for an in-flight slot (0 = same as -max-inflight, negative = no queue)")
		queueWait     = fs.Duration("queue-wait", 100*time.Millisecond, "max time a queued request waits before being shed 503")
		reqTimeout    = fs.Duration("request-timeout", 10*time.Second, "default per-request deadline (?timeout= overrides, capped by -max-request-timeout)")
		maxReqTimeout = fs.Duration("max-request-timeout", time.Minute, "upper bound on client-requested ?timeout=")
		readHeaderTO  = fs.Duration("read-header-timeout", 5*time.Second, "http.Server ReadHeaderTimeout (slowloris guard)")
		writeTO       = fs.Duration("write-timeout", 30*time.Second, "http.Server WriteTimeout")
		idleTO        = fs.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout for keep-alive connections")
		maxHeader     = fs.Int("max-header-bytes", 1<<20, "http.Server MaxHeaderBytes")
		drainTO       = fs.Duration("drain-timeout", 10*time.Second, "grace period for in-flight requests on SIGTERM/SIGINT")

		bench     = fs.Bool("bench", false, "run the load-test harness instead of serving")
		clients   = fs.Int("clients", 64, "concurrent clients in bench mode")
		duration  = fs.Duration("duration", 3*time.Second, "bench run length")
		swapEvery = fs.Duration("swap-every", 500*time.Millisecond, "bench: swap snapshots at this interval (0 disables)")
		workload  = fs.Int("workload", 16, "bench: distinct query paths sampled into the workload")
		out       = fs.String("out", "BENCH_serve.json", "bench: output file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sources := 0
	for _, set := range []bool{*repoDir != "", *corpusN != 0, *followDir != ""} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return fmt.Errorf("exactly one of -repo, -corpus or -follow is required")
	}

	coll := obs.NewCollector()
	opts := serve.Options{
		Tracer:            coll,
		MaxResults:        *maxResults,
		MaxInFlight:       *maxInFlight,
		MaxQueue:          *maxQueue,
		QueueWait:         *queueWait,
		RequestTimeout:    *reqTimeout,
		MaxRequestTimeout: *maxReqTimeout,
	}

	var repo *repository.Repository
	load := repoSource(*repoDir, *corpusN, *seed, *sup, *ratio)
	if *followDir != "" {
		// Follow mode: the loop installs snapshots; /api/reload forces an
		// immediate validated attempt against the same directory.
		load = func() (*repository.Repository, error) {
			return repository.Load(*followDir)
		}
	} else {
		var err error
		if repo, err = load(); err != nil {
			return err
		}
	}
	opts.Reload = load
	srv := serve.NewServer(repo, opts)
	obs.RegisterDebug(srv.Mux(), coll)

	if *driftFile != "" {
		d, err := loadDrift(*driftFile)
		if err != nil {
			return err
		}
		srv.SetDrift(d)
	}

	if *bench {
		return runBench(w, srv, load, benchConfig{
			clients:   *clients,
			duration:  *duration,
			swapEvery: *swapEvery,
			workload:  *workload,
			out:       *out,
		})
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()

	if *followDir != "" {
		go srv.Follow(ctx, serve.FollowOptions{
			Load:     load,
			Interval: *followInt,
			Fingerprint: func() (string, error) {
				return serve.DirFingerprint(*followDir)
			},
			OnSwap: func(gen uint64, fp string) {
				fmt.Fprintf(w, "webrevd: follow %s: installed gen %d (%s)\n", *followDir, gen, fp)
			},
			OnReject: func(err error) {
				fmt.Fprintf(w, "webrevd: follow %s: rejected reload, keeping gen %d: %v\n",
					*followDir, snapshotGen(srv), err)
			},
		})
	}

	d := serve.NewDaemon(srv, serve.DaemonOptions{
		ReadHeaderTimeout: *readHeaderTO,
		WriteTimeout:      *writeTO,
		IdleTimeout:       *idleTO,
		MaxHeaderBytes:    *maxHeader,
		DrainTimeout:      *drainTO,
		OnDrained: func() {
			if *metricsOut != "" {
				if err := coll.Snapshot().WriteFile(*metricsOut); err != nil {
					fmt.Fprintf(w, "webrevd: metrics flush: %v\n", err)
				}
			}
		},
	})
	go func() {
		<-ctx.Done()
		fmt.Fprintln(w, "webrevd: draining")
		if err := d.Drain(context.Background()); err != nil {
			fmt.Fprintln(w, "webrevd:", err)
		}
	}()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if ix := srv.Snapshot(); ix != nil {
		fmt.Fprintf(w, "webrevd: serving %d documents, %d paths on %s (gen %d)\n",
			ix.Docs(), len(ix.Frozen().Paths()), ln.Addr(), ix.Gen())
	} else {
		fmt.Fprintf(w, "webrevd: pending on %s (following %s; /readyz 503 until the first valid snapshot)\n",
			ln.Addr(), *followDir)
	}
	if err := d.Serve(ln); err != nil {
		return err
	}
	fmt.Fprintln(w, "webrevd: drained, exiting")
	return nil
}

// snapshotGen reports the current generation for log lines (0 = pending).
func snapshotGen(s *serve.Server) uint64 {
	if ix := s.Snapshot(); ix != nil {
		return ix.Gen()
	}
	return 0
}

// loadDrift reads a drift report (as `webrev watch -drift FILE` writes it)
// and rejects versions this build does not understand.
func loadDrift(path string) (*schema.Drift, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("drift report: %w", err)
	}
	d := &schema.Drift{}
	if err := json.Unmarshal(data, d); err != nil {
		return nil, fmt.Errorf("drift report %s: %w", path, err)
	}
	if d.Version != schema.DriftVersion {
		return nil, fmt.Errorf("drift report %s: version %d not supported (want %d)",
			path, d.Version, schema.DriftVersion)
	}
	return d, nil
}

// repoSource returns the loader the server boots from and /api/reload
// re-invokes: a repository directory read, or a full corpus pipeline run.
func repoSource(dir string, n int, seed int64, sup, ratio float64) func() (*repository.Repository, error) {
	if dir != "" {
		return func() (*repository.Repository, error) {
			return repository.Load(dir)
		}
	}
	return func() (*repository.Repository, error) {
		p, err := core.New(core.Config{
			Concepts:       concept.ResumeConcepts(),
			Constraints:    concept.ResumeConstraints(),
			RootName:       "resume",
			SupThreshold:   sup,
			RatioThreshold: ratio,
		})
		if err != nil {
			return nil, err
		}
		resumes := corpus.New(corpus.Options{Seed: seed}).Corpus(n)
		srcs := make([]core.Source, len(resumes))
		for i, r := range resumes {
			srcs[i] = core.Source{Name: r.Name, HTML: r.HTML}
		}
		return p.BuildRepository(srcs)
	}
}

type benchConfig struct {
	clients   int
	duration  time.Duration
	swapEvery time.Duration
	workload  int
	out       string
}

// overloadInFlight is the deliberately tiny admission limit of the bench
// overload pass: with per-request delay injection it pins capacity far
// below the offered load, so the pass measures shedding behavior, not the
// hardware.
const overloadInFlight = 4

// runBench serves on a loopback port, drives the load harness against it,
// and writes the percentiles in the shared BENCH_*.json shape so the CI
// bench-regression job diffs serving latency like any other benchmark.
// A second, shorter pass drives 4x-overload into a tight admission limit
// and records admitted-request percentiles and goodput (ServeOverload/*)
// plus the shed rate (ServeShed/rate, informational).
func runBench(w io.Writer, srv *serve.Server, load func() (*repository.Repository, error), cfg benchConfig) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()

	opts := serve.LoadOptions{
		Clients:  cfg.clients,
		Duration: cfg.duration,
		Workload: srv.DefaultWorkload(cfg.workload),
	}
	if cfg.swapEvery > 0 {
		opts.SwapEvery = cfg.swapEvery
		opts.SwapRepo = func() *repository.Repository {
			repo, err := load()
			if err != nil {
				panic(fmt.Sprintf("bench swap reload: %v", err))
			}
			return repo
		}
	}
	res, err := serve.LoadTest(srv, "http://"+ln.Addr().String(), opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "webrevd bench: %s\n", res)
	if res.Errors > 0 {
		return fmt.Errorf("bench: %d of %d requests failed", res.Errors, res.Requests)
	}

	over, err := runOverloadBench(srv.Snapshot(), cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "webrevd overload: %s (shed rate %.0f%%)\n", over, 100*over.ShedRate())

	// Latencies land as ns_per_op under benchmark-style names; the
	// throughput entries are mean inter-arrival time (1e9/rps), so lower
	// is better for every entry and benchdiff's ns/op gate applies
	// uniformly. ServeShed/rate is a percentage, recorded for the record
	// but excluded from the CI -match (its steady state is by design high).
	file := &obs.BenchFile{
		Meta: obs.CollectMeta("."),
		Benchmarks: map[string]obs.BenchResult{
			"ServeMixed/p50":        {NsPerOp: float64(res.P50.Nanoseconds()), Iterations: res.Requests},
			"ServeMixed/p90":        {NsPerOp: float64(res.P90.Nanoseconds()), Iterations: res.Requests},
			"ServeMixed/p99":        {NsPerOp: float64(res.P99.Nanoseconds()), Iterations: res.Requests},
			"ServeMixed/mean":       {NsPerOp: float64(res.Mean.Nanoseconds()), Iterations: res.Requests},
			"ServeMixed/throughput": {NsPerOp: 1e9 / res.Throughput, Iterations: res.Requests},
			"ServeOverload/p99":     {NsPerOp: float64(over.P99.Nanoseconds()), Iterations: over.Admitted},
			"ServeOverload/goodput": {NsPerOp: 1e9 / over.Goodput, Iterations: over.Admitted},
			"ServeShed/rate":        {NsPerOp: 100 * over.ShedRate(), Iterations: over.Requests},
		},
	}
	if cfg.out == "" || cfg.out == "-" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(w, string(data))
		return nil
	}
	if err := file.WriteFile(cfg.out); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s (clients=%d duration=%s swaps=%d)\n", cfg.out, res.Clients, res.Duration.Round(time.Millisecond), res.Swaps)
	return nil
}

// runOverloadBench stands up a second server over the same snapshot with
// a tiny admission limit and slow (delay-injected) handlers, then offers
// roughly 4x its capacity: admitted-request p99 must stay bounded by the
// queue wait while the excess sheds.
func runOverloadBench(ix *serve.Index, cfg benchConfig) (*serve.LoadResult, error) {
	if ix == nil {
		return nil, fmt.Errorf("bench: no snapshot to run the overload pass against")
	}
	srv := serve.NewServer(ix.Repo(), serve.Options{
		MaxInFlight: overloadInFlight,
		MaxQueue:    overloadInFlight,
		QueueWait:   20 * time.Millisecond,
		Faults: faultinject.NewStage(faultinject.StageConfig{
			Seed:         1,
			Rate:         1,
			Kinds:        []faultinject.StageKind{faultinject.StageDelay},
			FaultsPerKey: -1,
			Delay:        2 * time.Millisecond,
		}),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()

	dur := cfg.duration / 2
	if dur < 500*time.Millisecond {
		dur = 500 * time.Millisecond
	}
	return serve.LoadTest(srv, "http://"+ln.Addr().String(), serve.LoadOptions{
		// 4x the admitted concurrency (slots + queue) keeps the server
		// saturated: every slot full, every queue position contended.
		Clients:  4 * (overloadInFlight + overloadInFlight),
		Duration: dur,
		Workload: srv.DefaultWorkload(8),
	})
}
