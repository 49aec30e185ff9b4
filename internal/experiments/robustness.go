package experiments

import (
	"context"
	"fmt"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sort"
	"strings"
	"time"

	"webrev/internal/corpus"
	"webrev/internal/crawler"
	"webrev/internal/faultinject"
)

// ---------------------------------------------------------------------------
// E7: acquisition robustness (beyond the paper)
// ---------------------------------------------------------------------------

// RobustnessResult measures the fault tolerance of the acquisition path:
// the same site is crawled clean and under seeded transient fault
// injection, and the result records whether the faulty crawl recovered the
// identical page set. The paper's crawler worked against the live 2001 Web
// (§4, ref [20]), where this machinery is what makes "~1000 resumes"
// gatherable at all.
type RobustnessResult struct {
	Docs      int
	FaultRate float64
	SitePages int
	// CleanPages and FaultyPages are the page counts of each crawl.
	CleanPages  int
	FaultyPages int
	// FullRecovery is true when both crawls returned the identical URL set.
	FullRecovery bool
	// Injected is the number of faults the middleware actually injected.
	Injected int
	// InjectedByKind tallies the injected faults per kind name.
	InjectedByKind map[string]int
	// Retries and Failed come from the faulty crawl's report.
	Retries int
	Failed  int
	// CleanWall and FaultyWall are the crawls' wall-clock durations.
	CleanWall  time.Duration
	FaultyWall time.Duration
}

// RunRobustness serves nDocs generated resumes (plus a few distractors),
// crawls the site once cleanly and once behind deterministic fault
// injection at faultRate, and compares the recovered page sets.
func RunRobustness(nDocs int, faultRate float64, seed int64) (RobustnessResult, error) {
	g := corpus.New(corpus.Options{Seed: seed})
	var off []string
	for i := 0; i < 5; i++ {
		off = append(off, g.Distractor())
	}
	site := crawler.BuildSite(g.Corpus(nDocs), off)

	clean := httptest.NewServer(site.Handler())
	defer clean.Close()
	inj := faultinject.New(site.Handler(), faultinject.Config{
		Seed:      seed,
		Rate:      faultRate,
		SlowDelay: 5 * time.Millisecond,
	})
	faulty := httptest.NewServer(inj)
	defer faulty.Close()

	mk := func() *crawler.Crawler {
		return &crawler.Crawler{
			Workers: 8,
			Filter:  crawler.ResumeFilter(3),
			Fetch: crawler.FetchPolicy{
				Timeout:     500 * time.Millisecond,
				MaxRetries:  3,
				BackoffBase: 2 * time.Millisecond,
				BackoffMax:  20 * time.Millisecond,
			},
		}
	}
	res := RobustnessResult{Docs: nDocs, FaultRate: faultRate, SitePages: site.PageCount()}

	cleanPages, cleanRep, err := mk().CrawlContext(context.Background(), clean.URL+"/")
	if err != nil {
		return res, fmt.Errorf("clean crawl: %w", err)
	}
	faultyPages, faultyRep, err := mk().CrawlContext(context.Background(), faulty.URL+"/")
	if err != nil {
		return res, fmt.Errorf("faulty crawl: %w", err)
	}

	res.CleanPages = len(cleanPages)
	res.FaultyPages = len(faultyPages)
	res.FullRecovery = reflect.DeepEqual(pagePaths(cleanPages), pagePaths(faultyPages))
	res.Injected = inj.Total()
	res.InjectedByKind = make(map[string]int)
	for k, n := range inj.Injected() {
		res.InjectedByKind[k.String()] = n
	}
	res.Retries = faultyRep.Retried
	res.Failed = faultyRep.Failed
	res.CleanWall = cleanRep.Wall
	res.FaultyWall = faultyRep.Wall
	return res, nil
}

func pagePaths(pages []crawler.Page) []string {
	out := make([]string, 0, len(pages))
	for _, p := range pages {
		if u, err := url.Parse(p.URL); err == nil {
			out = append(out, u.Path)
		}
	}
	sort.Strings(out)
	return out
}

// Report renders the E7 result.
func (r RobustnessResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E7 — Acquisition robustness: crawl under seeded fault injection\n")
	fmt.Fprintf(&b, "  site: %d pages (%d resumes); fault rate %.0f%%\n",
		r.SitePages, r.Docs, r.FaultRate*100)
	var kinds []string
	for k := range r.InjectedByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	parts := make([]string, len(kinds))
	for i, k := range kinds {
		parts[i] = fmt.Sprintf("%s:%d", k, r.InjectedByKind[k])
	}
	fmt.Fprintf(&b, "  faults injected: %d [%s]\n", r.Injected, strings.Join(parts, " "))
	fmt.Fprintf(&b, "  clean crawl:  %4d pages in %v\n", r.CleanPages, r.CleanWall.Round(time.Millisecond))
	fmt.Fprintf(&b, "  faulty crawl: %4d pages in %v  (%d retries, %d permanent failures)\n",
		r.FaultyPages, r.FaultyWall.Round(time.Millisecond), r.Retries, r.Failed)
	fmt.Fprintf(&b, "  full recovery: %v\n", r.FullRecovery)
	return b.String()
}
