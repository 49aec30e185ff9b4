package experiments

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"time"

	"webrev/internal/concept"
	"webrev/internal/core"
	"webrev/internal/corpus"
	"webrev/internal/crawler"
	"webrev/internal/faultinject"
	"webrev/internal/watch"
)

// ---------------------------------------------------------------------------
// E13: drift detection under template mutation (beyond the paper)
// ---------------------------------------------------------------------------

// DriftDetectionRow is one point of the E13 sweep: a watch loop over a site
// whose templates mutate at the given rate between cycles.
type DriftDetectionRow struct {
	// Rate is the configured per-template mutation rate.
	Rate float64
	// Mutated is the number of templates the sweep actually rewrote.
	Mutated int
	// Changed is the number of pages the next cycle classified as changed —
	// detection is complete when Changed == Mutated.
	Changed int
	// DetectCycles is how many cycles after the mutation the drift report
	// first named a schema shift (1 = the immediately following cycle);
	// 0 means the mutation never surfaced within the sweep's cycle budget.
	DetectCycles int
	// ShiftedPaths counts the frequent paths the detecting report named as
	// new, vanished, or support-shifted.
	ShiftedPaths int
	// IncrementalWall is the wall-clock time of the detecting cycle:
	// conditional recrawl plus delta fold plus incremental re-derivation.
	IncrementalWall time.Duration
	// FullWall is the wall-clock time of a cold full rebuild of the same
	// corpus state — the price the cycle would pay without delta builds.
	FullWall time.Duration
}

// DriftDetectionResult is the E13 sweep: template-mutation rate versus
// detection latency and incremental-vs-full rebuild time.
type DriftDetectionResult struct {
	// Docs is the corpus size per site.
	Docs int
	// MaxCycles is the per-row cycle budget for detection.
	MaxCycles int
	// Rows holds one entry per mutation rate.
	Rows []DriftDetectionRow
}

// RunDriftDetection stands up a generated site per rate, seeds a watch loop
// with one full cycle, mutates rate percent of the site's templates
// (renamed section headings — the classic redesign), and runs further
// cycles until the drift report names a schema shift. Incremental cycle
// time is compared against a cold batch rebuild of the same corpus state.
func RunDriftDetection(nDocs int, rates []float64, seed int64) (DriftDetectionResult, error) {
	res := DriftDetectionResult{Docs: nDocs, MaxCycles: 3}
	ctx := context.Background()
	for _, rate := range rates {
		g := corpus.New(corpus.Options{Seed: seed})
		site := crawler.BuildSite(g.Corpus(nDocs), []string{g.Distractor()})
		srv := httptest.NewServer(site.Handler())

		p, err := core.New(core.Config{
			Concepts:    concept.ResumeConcepts(),
			Constraints: concept.ResumeConstraints(),
			RootName:    "resume",
		})
		if err != nil {
			srv.Close()
			return res, err
		}
		w, err := watch.New(watch.Options{
			Pipeline: p,
			Crawler: &crawler.Crawler{
				Client: srv.Client(),
				Filter: crawler.ResumeFilter(3),
				Fetch:  crawler.FetchPolicy{Revalidate: true},
			},
			Seed: srv.URL + "/",
			// One renamed heading moves a path's support by 1/nDocs; report
			// at half a document's weight so single-template redesigns of
			// distinct sections register.
			MinSupportShift: 0.5 / float64(nDocs),
		})
		if err != nil {
			srv.Close()
			return res, err
		}
		if _, err := w.Cycle(ctx); err != nil {
			srv.Close()
			return res, err
		}

		row := DriftDetectionRow{Rate: rate}
		tm := faultinject.NewTemplate(faultinject.TemplateConfig{
			Seed: seed, Rate: rate,
			Ops: []faultinject.TemplateOp{faultinject.TemplateRenameHeading},
		})
		for _, path := range site.Paths() {
			if !strings.HasPrefix(path, "/resumes/") {
				continue
			}
			html, _ := site.Page(path)
			if out, op := tm.Mutate(path, html); op != faultinject.TemplateNone {
				site.SetPage(path, out)
				row.Mutated++
			}
		}

		for c := 1; c <= res.MaxCycles; c++ {
			t0 := time.Now()
			r, err := w.Cycle(ctx)
			wall := time.Since(t0)
			if err != nil {
				srv.Close()
				return res, err
			}
			if c == 1 {
				row.Changed = r.Drift.Docs.Changed
				row.IncrementalWall = wall
			}
			if r.Drift.Shifted() {
				row.DetectCycles = c
				row.ShiftedPaths = len(r.Drift.NewPaths) +
					len(r.Drift.VanishedPaths) + len(r.Drift.ShiftedPaths)
				break
			}
		}

		// The cold baseline: batch-build the post-mutation corpus from raw
		// HTML through a fresh pipeline.
		var sources []core.Source
		for _, path := range site.Paths() {
			if !strings.HasPrefix(path, "/resumes/") {
				continue
			}
			html, _ := site.Page(path)
			sources = append(sources, core.Source{Name: srv.URL + path, HTML: html})
		}
		cp, err := core.New(core.Config{
			Concepts:    concept.ResumeConcepts(),
			Constraints: concept.ResumeConstraints(),
			RootName:    "resume",
		})
		if err != nil {
			srv.Close()
			return res, err
		}
		t0 := time.Now()
		if _, err := cp.Build(sources); err != nil {
			srv.Close()
			return res, err
		}
		row.FullWall = time.Since(t0)

		srv.Close()
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Report renders the E13 result.
func (r DriftDetectionResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E13 — Drift detection: template-mutation rate vs detection and rebuild cost\n")
	fmt.Fprintf(&b, "  corpus: %d documents per site; detection budget %d cycles\n", r.Docs, r.MaxCycles)
	fmt.Fprintf(&b, "  %6s  %8s  %8s  %7s  %7s  %12s  %10s\n",
		"rate", "mutated", "changed", "detect", "paths", "incremental", "full")
	for _, row := range r.Rows {
		detect := "-"
		if row.DetectCycles > 0 {
			detect = fmt.Sprintf("%d cyc", row.DetectCycles)
		}
		fmt.Fprintf(&b, "  %5.0f%%  %8d  %8d  %7s  %7d  %12v  %10v\n",
			row.Rate*100, row.Mutated, row.Changed, detect, row.ShiftedPaths,
			row.IncrementalWall.Round(time.Millisecond), row.FullWall.Round(time.Millisecond))
	}
	b.WriteString("  detection holds when changed == mutated and detect == 1 cyc for every\n")
	b.WriteString("  non-zero rate; incremental is the detecting cycle's wall time, full a\n")
	b.WriteString("  cold rebuild of the same corpus state.\n")
	return b.String()
}
