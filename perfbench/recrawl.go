package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"webrev/internal/concept"
	"webrev/internal/core"
	"webrev/internal/corpus"
	"webrev/internal/crawler"
	"webrev/internal/faultinject"
	"webrev/internal/obs"
	"webrev/internal/schema"
	"webrev/internal/watch"
)

// The recrawl workload: a loopback site whose resume pages the benchmark
// redesigns between cycles, about recrawlRate of them per cycle, under a
// watcher that persists its state and runs delta cycles back to back.
const (
	recrawlPages       = 150 // resume pages on the site
	recrawlCycles      = 100 // delta cycles per pass: enough for a p90 with ten samples beyond it
	recrawlRate        = 0.2 // share of resume pages redesigned per cycle
	recrawlMinEpochs   = 3   // passes over the schedule per untraced run, however short --seconds is
	recrawlTraceEpochs = 2   // passes per traced run at least, so the determinism guard compares two
	recrawlRestarts    = 3   // restarts timed after each pass
	recrawlWorkers     = 2
	recrawlDistractors = 3
)

type recrawlBench struct {
	pages, cycles int
	dir           string
	cons          *concept.Constraints
	initial       map[string]string // path → body before the first delta cycle
	paths         []string          // sorted paths of initial
	schedule      [][]pageEdit      // per delta cycle, the pages it redesigns
}

// pageEdit replaces one page's body.
type pageEdit struct{ path, body string }

func newRecrawlBench() *recrawlBench {
	return &recrawlBench{pages: recrawlPages, cycles: recrawlCycles}
}

func (b *recrawlBench) setup(dir string, seed int64) (string, error) {
	b.dir = dir
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	b.cons = concept.ResumeConstraints()
	g := corpus.New(corpus.Options{Seed: seed})
	resumes := g.Corpus(b.pages)
	var distractors []string
	for i := 0; i < recrawlDistractors; i++ {
		distractors = append(distractors, g.Distractor())
	}
	site := crawler.BuildSite(resumes, distractors)
	b.paths = site.Paths()
	b.initial = make(map[string]string, len(b.paths))
	h := sha256.New()
	for _, p := range b.paths {
		b.initial[p], _ = site.Page(p)
		fmt.Fprintf(h, "%s\x00%s\x00", p, b.initial[p])
	}
	// Each cycle redesigns a fresh seeded selection of resume pages, each
	// from its original template, so a page carries at most one redesign
	// and page sizes stay put however long the schedule runs.
	cur := make(map[string]string, len(b.initial))
	for p, body := range b.initial {
		cur[p] = body
	}
	b.schedule = make([][]pageEdit, b.cycles)
	for c := range b.schedule {
		tm := faultinject.NewTemplate(faultinject.TemplateConfig{Seed: seed*7919 + int64(c) + 1, Rate: recrawlRate})
		for _, p := range b.paths {
			if !strings.HasPrefix(p, "/resumes/") {
				continue
			}
			out, op := tm.Mutate(p, b.initial[p])
			if op == faultinject.TemplateNone || out == cur[p] {
				continue
			}
			cur[p] = out
			b.schedule[c] = append(b.schedule[c], pageEdit{p, out})
			fmt.Fprintf(h, "%d\x00%s\x00%s\x00", c, p, out)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// liveSite is the benchmark's site served on a loopback listener.
type liveSite struct {
	site *crawler.Site
	*loopback
}

func (b *recrawlBench) serveSite() (*liveSite, error) {
	site := crawler.BuildSite(nil, nil)
	lb, err := startLoopback(site.Handler())
	if err != nil {
		return nil, err
	}
	return &liveSite{site: site, loopback: lb}, nil
}

// reset puts every page back to its state before the first delta cycle.
func (ls *liveSite) reset(b *recrawlBench) {
	for _, p := range b.paths {
		ls.site.SetPage(p, b.initial[p])
	}
}

// timedTransport times each crawler fetch: the round trip up to the
// response headers plus the body read, which the crawler does before
// closing the body.
type timedTransport struct {
	base http.RoundTripper
	clk  clock
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.clk.add(time.Since(start))
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, start: start, clk: &t.clk}
	return resp, nil
}

type timedBody struct {
	io.ReadCloser
	start time.Time
	clk   *clock
	done  bool
}

func (b *timedBody) Close() error {
	if !b.done {
		b.done = true
		b.clk.add(time.Since(b.start))
	}
	return b.ReadCloser.Close()
}

// watcher opens a watcher over stateDir against the live site; tr (which
// may be nil) traces the pipeline, the crawler and the cycle.
func (b *recrawlBench) watcher(ls *liveSite, stateDir string, rt http.RoundTripper, tr obs.Tracer) (*watch.Watcher, error) {
	p, err := core.New(core.Config{
		Concepts:    concept.ResumeConcepts(),
		Constraints: b.cons,
		RootName:    "resume",
		// One mapping worker keeps a cycle on one timeline, so the traced
		// run's stage spans add up to the cycle's wall time.
		Parallelism: 1,
		Tracer:      tr,
	})
	if err != nil {
		return nil, err
	}
	c := &crawler.Crawler{
		Client:  &http.Client{Transport: rt},
		Workers: recrawlWorkers,
		Filter:  crawler.ResumeFilter(3),
		Fetch:   crawler.FetchPolicy{Revalidate: true},
		Tracer:  tr,
	}
	return watch.New(watch.Options{Pipeline: p, Crawler: c, Seed: ls.base + "/", StateDir: stateDir, Tracer: tr})
}

// epochCounts are the deterministic tallies of one pass over the schedule.
type epochCounts struct {
	fetched, notModified, changed, added, vanished, failed int
	bytesPerDoc                                            float64
}

// epoch is one pass over the mutation schedule from a fresh state
// directory: a seed cycle that fetches everything, then one delta cycle per
// schedule step, each timed into cycles.
type epoch struct {
	cycles   []time.Duration
	counts   epochCounts
	last     *watch.Result
	attempts int64
}

func (b *recrawlBench) runEpoch(ctx context.Context, ls *liveSite, w *watch.Watcher, afterSeed func()) (*epoch, error) {
	ls.reset(b)
	if _, err := w.Cycle(ctx); err != nil {
		return nil, fmt.Errorf("seed cycle: %w", err)
	}
	if afterSeed != nil {
		afterSeed()
	}
	e := &epoch{}
	for c, edits := range b.schedule {
		for _, ed := range edits {
			ls.site.SetPage(ed.path, ed.body)
		}
		t := time.Now()
		res, err := w.Cycle(ctx)
		d := time.Since(t)
		if err != nil {
			return nil, fmt.Errorf("delta cycle %d: %w", c+1, err)
		}
		e.cycles = append(e.cycles, d)
		rep, delta := res.Report, res.Drift.Docs
		e.counts.fetched += rep.Fetched
		e.counts.notModified += rep.NotModified
		e.counts.changed += delta.Changed
		e.counts.added += delta.New
		e.counts.vanished += delta.Vanished
		e.counts.failed += rep.Failed + delta.Failed
		e.attempts += int64(rep.Fetched+rep.NotModified+rep.Failed) + 1
		e.last = res
	}
	return e, nil
}

// checkCold rebuilds the site's current state from scratch, in the
// watcher's document order, and requires the last cycle's repository to be
// byte-identical to it.
func (b *recrawlBench) checkCold(r *report, ls *liveSite, w *watch.Watcher, last *watch.Result) error {
	var sources []core.Source
	for _, u := range w.DocURLs() {
		html, ok := ls.site.Page(strings.TrimPrefix(u, ls.base))
		if !ok {
			r.wrongf("watcher tracks %s but the site does not serve it", u)
			return nil
		}
		sources = append(sources, core.Source{Name: u, HTML: html})
	}
	p, err := resumePipeline(b.cons, 0)
	if err != nil {
		return err
	}
	cold, err := p.Build(sources)
	if err != nil {
		return fmt.Errorf("cold build: %w", err)
	}
	want, err := digest(cold.Export())
	if err != nil {
		return err
	}
	got, err := digest(last.Repo.Export())
	if err != nil {
		return err
	}
	if got != want {
		r.wrongf("last recrawl cycle's repository %s differs from a cold build of the site %s", got, want)
	}
	return nil
}

// restart measures what a restarted watcher pays before its first
// repository: load the state directory, run one cycle.
func (b *recrawlBench) restart(ctx context.Context, ls *liveSite, stateDir string, rt http.RoundTripper) (time.Duration, error) {
	t := time.Now()
	w, err := b.watcher(ls, stateDir, rt, nil)
	if err != nil {
		return 0, err
	}
	if _, err := w.Cycle(ctx); err != nil {
		return 0, fmt.Errorf("cycle after restart: %w", err)
	}
	return time.Since(t), nil
}

func newTransport() *http.Transport {
	return &http.Transport{MaxConnsPerHost: recrawlWorkers, MaxIdleConnsPerHost: recrawlWorkers}
}

func (b *recrawlBench) measure(r *report, seconds float64) (err error) {
	ctx := context.Background()
	ls, err := b.serveSite()
	if err != nil {
		return err
	}
	defer func() {
		if cerr := ls.close(); err == nil {
			err = cerr
		}
	}()
	tr := newTransport()
	defer tr.CloseIdleConnections()

	var rs repeats
	var opens []float64
	var first *epochCounts
	start := time.Now()
	for n := 0; n < recrawlMinEpochs || time.Since(start).Seconds() < seconds; n++ {
		stateDir := filepath.Join(b.dir, fmt.Sprintf("state-%d", n))
		w, err := b.watcher(ls, stateDir, tr, nil)
		if err != nil {
			return err
		}
		e, err := b.runEpoch(ctx, ls, w, nil)
		if err != nil {
			return err
		}
		var cycleMS []float64
		var busy time.Duration
		for _, d := range e.cycles {
			cycleMS = append(cycleMS, ms(d))
			busy += d
		}
		pages := e.counts.fetched + e.counts.notModified
		rs.add(cycleMS, float64(pages)/busy.Seconds())
		r.ops(e.attempts, int64(e.counts.failed))
		if err := b.checkCold(r, ls, w, e.last); err != nil {
			return err
		}
		size, err := dirBytes(stateDir)
		if err != nil {
			return err
		}
		e.counts.bytesPerDoc = float64(size) / float64(w.Docs())
		for i := 0; i < recrawlRestarts; i++ {
			open, err := b.restart(ctx, ls, stateDir, tr)
			if err != nil {
				return err
			}
			opens = append(opens, open.Seconds())
		}
		if first == nil {
			first = &e.counts
		} else if e.counts != *first {
			r.wrongf("recrawl counts changed between passes over one schedule: %+v then %+v", *first, e.counts)
		}
		if err := os.RemoveAll(stateDir); err != nil {
			return err
		}
	}
	if err := rs.report(r, 0.9); err != nil {
		return err
	}
	r.set("open_s", median(opens), "s", len(opens))
	r.set("bytes_per_doc", first.bytesPerDoc, "B", 1)
	return nil
}

// spanStages are the program's own spans that tile a watch cycle: the
// recrawl, then per changed page its conversion and path extraction, then
// the incremental rebuild's mining, derivation and per-document mapping.
var spanStages = []string{obs.StageCrawl, obs.StageConvert, obs.StageExtract, obs.StageMine, obs.StageDerive, obs.StageMap}

func (b *recrawlBench) trace(r *report, seconds float64, primary bool) (err error) {
	ctx := context.Background()
	ls, err := b.serveSite()
	if err != nil {
		return err
	}
	defer func() {
		if cerr := ls.close(); err == nil {
			err = cerr
		}
	}()
	base := newTransport()
	defer base.CloseIdleConnections()
	rt := &timedTransport{base: base}
	coll := obs.NewCollector()

	var wall, covered, rebuildTime, fetchTime time.Duration
	var cycles, spans, mapped, fetches int64
	var first *epochCounts
	var subtract clock
	start := time.Now()
	for n := 0; n < recrawlTraceEpochs || (primary && time.Since(start).Seconds() < seconds); n++ {
		stateDir := filepath.Join(b.dir, fmt.Sprintf("traced-%d", n))
		w, err := b.watcher(ls, stateDir, rt, coll)
		if err != nil {
			return err
		}
		// Only delta cycles count: drop what the seed cycle recorded.
		e, err := b.runEpoch(ctx, ls, w, func() {
			coll.Reset()
			rt.clk.reset()
		})
		if err != nil {
			return err
		}
		snap := coll.Snapshot()
		for _, d := range e.cycles {
			wall += d
		}
		cycles += int64(len(e.cycles))
		for _, name := range spanStages {
			covered += snap.Stages[name].Total
		}
		rebuildTime += snap.Stages[obs.StageMine].Total + snap.Stages[obs.StageDerive].Total + snap.Stages[obs.StageMap].Total
		for _, st := range snap.Stages {
			spans += st.Count
		}
		mapped += snap.Counters[obs.CtrMapDocs]
		fetchTime += rt.clk.total()
		fetches += rt.clk.n.Load()
		r.ops(e.attempts, int64(e.counts.failed))
		if first == nil {
			first = &e.counts
		} else if e.counts != *first {
			r.wrongf("traced recrawl counts changed between passes over one schedule: %+v then %+v", *first, e.counts)
		}
		if err := b.checkCold(r, ls, w, e.last); err != nil {
			return err
		}
		if err := measureSubtract(&subtract, e.last.Repo.Docs); err != nil {
			return err
		}
		if err := os.RemoveAll(stateDir); err != nil {
			return err
		}
	}
	perCycle := float64(cycles)
	r.set("crawler.fetch_count", float64(fetches)/perCycle, "count", int(cycles))
	r.set("crawler.fetch_us", ratio(us(fetchTime), float64(fetches)), "us", int(fetches))
	r.set("crawler.not_modified_ratio", ratio(float64(first.notModified), float64(first.fetched+first.notModified)), "ratio", first.fetched+first.notModified)
	r.set("watch.cycle_ms", ms(wall)/perCycle, "ms", int(cycles))
	r.set("core.rebuild_ms", ms(rebuildTime)/perCycle, "ms", int(cycles))
	r.set("schema.subtract_us_per_doc", subtract.meanUS(), "us", int(subtract.n.Load()))
	r.set("mapping.docs_per_cycle", float64(mapped)/perCycle, "count", int(cycles))
	if primary {
		r.set("unattributed_ratio", unattributed(wall, covered), "ratio", int(cycles))
		cost := float64(spans)*float64(collectorSpanCost()) + float64(fetches)*float64(spanCost())
		r.set("trace.overhead_ratio", cost/float64(wall), "ratio", int(spans+fetches))
	}
	return nil
}

// measureSubtract times retiring every live document's statistics from a
// delta accumulator over the corpus and folding them back — the
// per-changed-page accumulator work of a cycle, which runs inside
// Watcher.Cycle where no span reaches it.
func measureSubtract(c *clock, docs []*core.Document) error {
	acc := schema.NewDeltaAccumulator(0)
	for i, d := range docs {
		acc.Add(i, d.Paths)
	}
	for i, d := range docs {
		t := time.Now()
		if err := acc.Subtract(i, d.Paths); err != nil {
			return err
		}
		c.add(time.Since(t))
		acc.Add(i, d.Paths)
	}
	return nil
}

// collectorSpanCost measures what one span costs on the program's own
// collector, which the traced recrawl run attaches.
func collectorSpanCost() time.Duration {
	const n = 100000
	c := obs.NewCollector()
	start := time.Now()
	for i := 0; i < n; i++ {
		c.StartSpan("calibrate").End()
	}
	return time.Since(start) / n
}
