package experiments

import (
	"fmt"
	"strings"

	"webrev/internal/concept"
	"webrev/internal/core"
	"webrev/internal/corpus"
	"webrev/internal/obs"
)

// ---------------------------------------------------------------------------
// E8: pipeline stage metrics (beyond the paper)
// ---------------------------------------------------------------------------

// StageMetricsResult is one fully instrumented end-to-end build: per-stage
// timings and the evaluation counters, ready for the human-readable
// summary (Report) or the machine-readable snapshot (Snapshot, what
// -metrics FILE writes; per-layer benchmark numbers come from
// `bash perfbench/run.sh --trace 1`).
type StageMetricsResult struct {
	Docs     int
	Repo     *core.Repository
	Snapshot *obs.Snapshot
}

// RunStageMetrics builds a repository over nDocs generated resumes with a
// recording tracer attached and returns the measured stage profile. This
// is the observability layer's own experiment: the numbers every future
// performance PR baselines against. coll, when non-nil, receives the
// events (so a live debug endpoint can watch the run); nil uses a fresh
// collector.
func RunStageMetrics(nDocs int, seed int64, coll *obs.Collector) (StageMetricsResult, error) {
	g := corpus.New(corpus.Options{Seed: seed})
	var sources []core.Source
	for _, r := range g.Corpus(nDocs) {
		sources = append(sources, core.Source{Name: r.Name, HTML: r.HTML})
	}
	if coll == nil {
		coll = obs.NewCollector()
	}
	p, err := core.New(core.Config{
		Concepts:    concept.ResumeConcepts(),
		Constraints: concept.ResumeConstraints(),
		RootName:    "resume",
		Tracer:      coll,
	})
	if err != nil {
		return StageMetricsResult{}, err
	}
	repo, err := p.Build(sources)
	if err != nil {
		return StageMetricsResult{}, err
	}
	return StageMetricsResult{Docs: nDocs, Repo: repo, Snapshot: coll.Snapshot()}, nil
}

// Report renders the stage summary table plus the headline pipeline
// figures.
func (r StageMetricsResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E8 — Pipeline stage metrics over %d documents\n", r.Docs)
	fmt.Fprintf(&b, "  conformance %.1f%% pre-mapping, %d total edits, %d DTD elements\n",
		r.Repo.ConformanceRate()*100, r.Repo.TotalMapCost(), r.Repo.DTD.Len())
	for _, line := range strings.Split(strings.TrimRight(r.Snapshot.Summary(), "\n"), "\n") {
		b.WriteString("  " + line + "\n")
	}
	return b.String()
}
