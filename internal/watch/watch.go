// Package watch is the continuous-operation loop over the reverse-
// engineering pipeline: instead of rebuilding the repository from a cold
// crawl, a Watcher revisits the site on a cadence, classifies every page
// against the previous cycle (conditional requests — see
// crawler.RecrawlTo), retires the statistics of documents that changed or
// vanished (schema.Accumulator.Subtract), folds replacements in, and
// re-derives the schema, DTD, and conformed repository incrementally
// (core.Pipeline.BuildFromStats). Because accumulator arithmetic is exact,
// every cycle's repository is byte-identical to a cold full rebuild of the
// same corpus state — the equivalence the package's tests pin.
//
// Each cycle emits a schema.Drift report naming the frequent paths that
// appeared, vanished, or shifted support, the DTD elements whose content
// models changed, and per-site conformance movement — the operator's signal
// that a source site redesigned its templates.
//
// State persists between process lives in a versioned state directory
// (see state.go): a manifest of the crawl validators and the previous
// derivation, plus a disk store of every live converted document, from
// which the accumulator is re-extracted on load. A Watcher pointed
// at an existing state directory resumes exactly where the previous one
// stopped.
package watch

import (
	"context"
	"fmt"
	"net/url"
	"sort"
	"time"

	"webrev/internal/core"
	"webrev/internal/crawler"
	"webrev/internal/obs"
	"webrev/internal/schema"
)

// Options configures a Watcher.
type Options struct {
	// Pipeline converts, mines, and maps; its configuration (concepts,
	// thresholds, limits, fault budget) applies to every cycle.
	Pipeline *core.Pipeline
	// Crawler fetches pages. Enable Fetch.Revalidate to revalidate with
	// conditional requests instead of refetching bodies; change detection
	// works either way via content hashes. The crawler's own Tracer, when
	// set, records per-cycle crawl counters.
	Crawler *crawler.Crawler
	// Seed is the URL every cycle starts from.
	Seed string
	// StateDir, when non-empty, persists the watch state after every cycle
	// and is loaded on New — the crash/restart boundary. Empty keeps state
	// in memory only.
	StateDir string
	// MinSupportShift is the support change below which a frequent path is
	// not reported as shifted (<= 0 selects schema.DefaultMinSupportShift).
	MinSupportShift float64
	// Tracer, when non-nil, times each cycle under obs.StageWatch and
	// records the watch.* counters.
	Tracer obs.Tracer
}

// docEntry is one live corpus document: its stable accumulator index and
// its converted form.
type docEntry struct {
	idx int
	doc *core.Document
}

// Watcher runs continuous-operation cycles. Not safe for concurrent use;
// run one Watcher per state directory.
type Watcher struct {
	opt Options
	tr  obs.Tracer

	cycle int
	crawl *crawler.CrawlState
	acc   *schema.Accumulator
	docs  map[string]*docEntry // URL → live document
	next  int                  // next fresh accumulator index

	// Previous cycle's derivation, diffed against by the drift report.
	prevSupports map[string]float64
	prevDTD      string
	prevSites    map[string]siteRate
}

// Result is one completed cycle's output.
type Result struct {
	// Cycle is the 1-based cycle ordinal.
	Cycle int
	// Report is the recrawl's account (fetches, 304s, failures, vanished).
	Report *crawler.Report
	// Drift is the cycle's schema-drift report. The first cycle diffs
	// against the empty schema, so it reports every frequent path as new.
	Drift *schema.Drift
	// Repo is the incrementally rebuilt repository.
	Repo *core.Repository
}

// New returns a Watcher over opt, resuming from opt.StateDir when it holds
// a previous life's state (either the watch format or a build's shard
// checkpoint, which seeds it — see load in state.go).
func New(opt Options) (*Watcher, error) {
	if opt.Pipeline == nil || opt.Crawler == nil || opt.Seed == "" {
		return nil, fmt.Errorf("watch: Pipeline, Crawler, and Seed are required")
	}
	w := &Watcher{
		opt:          opt,
		tr:           obs.OrNop(opt.Tracer),
		crawl:        crawler.NewCrawlState(),
		acc:          schema.NewAccumulator(0),
		docs:         make(map[string]*docEntry),
		prevSupports: make(map[string]float64),
		prevSites:    make(map[string]siteRate),
	}
	if opt.StateDir != "" {
		if err := w.load(); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// Docs returns the number of live corpus documents.
func (w *Watcher) Docs() int { return len(w.docs) }

// Cycles returns the number of completed cycles.
func (w *Watcher) Cycles() int { return w.cycle }

// DocURLs returns the live documents' URLs in accumulator-index order —
// the order the incremental repository lists them in.
func (w *Watcher) DocURLs() []string {
	ents := w.entries()
	out := make([]string, len(ents))
	for i, e := range ents {
		out[i] = e.doc.Source
	}
	return out
}

// entries returns the live documents sorted by accumulator index.
func (w *Watcher) entries() []*docEntry {
	out := make([]*docEntry, 0, len(w.docs))
	for _, e := range w.docs {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].idx < out[j].idx })
	return out
}

// retire removes one live document: its statistics leave the accumulator
// and the next save no longer writes it.
func (w *Watcher) retire(u string, e *docEntry) error {
	if err := w.acc.Subtract(e.idx, w.opt.Pipeline.ExtractPaths(e.doc)); err != nil {
		return fmt.Errorf("watch: retire %s: %w", u, err)
	}
	delete(w.docs, u)
	return nil
}

// complete reports whether the recrawl covered the whole site, i.e. its
// vanished classifications (and the watcher's own corpus sweep) are sound.
func complete(rep *crawler.Report) bool {
	return !rep.Canceled && !rep.BudgetExhausted && rep.Skipped == 0
}

// Cycle runs one continuous-operation cycle: recrawl, delta fold,
// incremental rebuild, drift report, state save. On error the state
// directory is left at the previous cycle (a restarted Watcher resumes
// cleanly); the in-memory Watcher must be discarded.
func (w *Watcher) Cycle(ctx context.Context) (*Result, error) {
	sp := w.tr.StartSpan(obs.StageWatch)
	defer sp.End()

	var pages []crawler.Page
	rep, err := w.opt.Crawler.RecrawlTo(ctx, w.opt.Seed, w.crawl, func(p crawler.Page) {
		pages = append(pages, p)
	})
	if err != nil {
		return nil, fmt.Errorf("watch: recrawl: %w", err)
	}

	var delta schema.DocDelta
	for _, fe := range rep.Errors {
		if _, ok := w.docs[fe.URL]; ok {
			delta.Failed++ // refetch failed: keep serving the stale copy
		}
	}
	for _, pg := range pages {
		ent := w.docs[pg.URL]
		switch pg.Change {
		case crawler.ChangeUnchanged:
			if ent != nil {
				delta.Unchanged++
			}
		case crawler.ChangeVanished:
			if ent != nil {
				if err := w.retire(pg.URL, ent); err != nil {
					return nil, err
				}
				delta.Vanished++
			}
		default: // ChangeNew, ChangeChanged, ChangeFetched
			if !pg.OnTopic {
				// A page that drifted off topic leaves the corpus even
				// though the site still serves it.
				if ent != nil {
					if err := w.retire(pg.URL, ent); err != nil {
						return nil, err
					}
					delta.Vanished++
				}
				continue
			}
			d, _, failed := w.opt.Pipeline.ConvertSource(core.Source{Name: pg.URL, HTML: pg.HTML})
			if failed != nil {
				delta.Failed++ // reconversion failed: keep the old version
				continue
			}
			if ent != nil {
				if err := w.acc.Subtract(ent.idx, w.opt.Pipeline.ExtractPaths(ent.doc)); err != nil {
					return nil, fmt.Errorf("watch: refold %s: %w", pg.URL, err)
				}
				ent.doc = d
				w.acc.Add(ent.idx, w.opt.Pipeline.ExtractPaths(d))
				delta.Changed++
			} else {
				e := &docEntry{idx: w.next, doc: d}
				w.next++
				w.docs[pg.URL] = e
				w.acc.Add(e.idx, w.opt.Pipeline.ExtractPaths(d))
				delta.New++
			}
		}
	}

	// Corpus sweep: on a complete crawl every live document must have a
	// crawl record; entries without one are left over from a seeding shard
	// checkpoint or an inconsistent state and retire now.
	if complete(rep) {
		var orphans []string
		for u := range w.docs {
			if _, ok := w.crawl.Pages[u]; !ok {
				orphans = append(orphans, u)
			}
		}
		sort.Strings(orphans)
		for _, u := range orphans {
			if err := w.retire(u, w.docs[u]); err != nil {
				return nil, err
			}
			delta.Vanished++
		}
	}

	if len(w.docs) == 0 {
		return nil, fmt.Errorf("watch: no on-topic documents after cycle %d", w.cycle+1)
	}
	ents := w.entries()
	docs := make([]*core.Document, len(ents))
	for i, e := range ents {
		docs[i] = e.doc
	}
	repo, err := w.opt.Pipeline.BuildFromStats(ctx, docs, w.acc)
	if err != nil {
		return nil, fmt.Errorf("watch: rebuild: %w", err)
	}

	w.cycle++
	cur := repo.Schema.SupportMap()
	dtdText := repo.DTD.Render()
	curSites := siteRates(repo)
	drift := &schema.Drift{
		Version: schema.DriftVersion,
		Cycle:   w.cycle,
		Docs:    delta,
		DTD:     schema.DiffDTDText(w.prevDTD, dtdText),
		Sites:   siteRows(w.prevSites, curSites),
	}
	drift.NewPaths, drift.VanishedPaths, drift.ShiftedPaths =
		schema.DiffSupports(w.prevSupports, cur, w.opt.MinSupportShift)
	w.prevSupports, w.prevDTD, w.prevSites = cur, dtdText, curSites

	if w.tr.Enabled() {
		w.tr.Add(obs.CtrWatchCycles, 1)
		w.tr.Add(obs.CtrWatchDocsUnchanged, int64(delta.Unchanged))
		w.tr.Add(obs.CtrWatchDocsChanged, int64(delta.Changed))
		w.tr.Add(obs.CtrWatchDocsNew, int64(delta.New))
		w.tr.Add(obs.CtrWatchDocsVanished, int64(delta.Vanished))
		w.tr.Add(obs.CtrWatchDriftNew, int64(len(drift.NewPaths)))
		w.tr.Add(obs.CtrWatchDriftVanished, int64(len(drift.VanishedPaths)))
	}

	if w.opt.StateDir != "" {
		if err := w.save(); err != nil {
			return nil, err
		}
	}
	return &Result{Cycle: w.cycle, Report: rep, Drift: drift, Repo: repo}, nil
}

// Run executes cycles until ctx ends or n cycles complete (n <= 0 runs
// until ctx ends), sleeping interval between cycles. Each result is handed
// to emit (which may be nil). The first cycle error stops the loop; a loop
// stopped by ctx returns nil after complete cycles only.
func (w *Watcher) Run(ctx context.Context, n int, interval time.Duration, emit func(*Result)) error {
	for i := 0; n <= 0 || i < n; i++ {
		if i > 0 && interval > 0 {
			select {
			case <-time.After(interval):
			case <-ctx.Done():
				return nil
			}
		}
		if ctx.Err() != nil {
			return nil
		}
		res, err := w.Cycle(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		if emit != nil {
			emit(res)
		}
	}
	return nil
}

// siteOf maps a document's source (a URL for acquired corpora) to its
// conformance-aggregation key: the URL host, or "corpus" for non-URL names.
func siteOf(raw string) string {
	if u, err := url.Parse(raw); err == nil && u.Host != "" {
		return u.Host
	}
	return "corpus"
}

// siteRate is one site's per-cycle conformance aggregate, persisted between
// cycles so regressions survive a restart.
type siteRate struct {
	// Docs is the site's mapped document count.
	Docs int `json:"docs"`
	// Rate is the fraction of the site's mapped documents that conformed to
	// the DTD before mapping.
	Rate float64 `json:"rate"`
}

// siteRates aggregates a repository's conformance per source site.
func siteRates(repo *core.Repository) map[string]siteRate {
	out := make(map[string]siteRate)
	for i := 0; i < repo.MappedDocs(); i++ {
		s := siteOf(repo.Docs[i].Source)
		r := out[s]
		r.Docs++
		if repo.MapStats[i].Cost() == 0 {
			r.Rate++ // conforming count; divided below
		}
		out[s] = r
	}
	for s, r := range out {
		r.Rate /= float64(r.Docs)
		out[s] = r
	}
	return out
}

// siteRows joins the previous and current per-site aggregates into sorted
// drift-report rows.
func siteRows(old, cur map[string]siteRate) []schema.SiteConformance {
	sites := make(map[string]bool)
	for s := range old {
		sites[s] = true
	}
	for s := range cur {
		sites[s] = true
	}
	var rows []schema.SiteConformance
	for s := range sites {
		o, c := old[s], cur[s]
		rows = append(rows, schema.SiteConformance{
			Site: s, OldDocs: o.Docs, NewDocs: c.Docs, OldRate: o.Rate, NewRate: c.Rate,
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Site < rows[j].Site })
	return rows
}
