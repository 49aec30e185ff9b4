package experiments

import (
	"fmt"
	"strings"
	"time"

	"webrev/internal/concept"
	"webrev/internal/corpus"
	"webrev/internal/dom"
	"webrev/internal/dtd"
	"webrev/internal/mapping"
	"webrev/internal/schema"
	"webrev/internal/xmlout"
)

// ---------------------------------------------------------------------------
// E12: discover->mine->map hot-path before/after (beyond the paper)
// ---------------------------------------------------------------------------

// HotPathPoint is one corpus size of the E12 sweep: the mining fold timed,
// the mapping pass timed against a cold versus a precompiled DTD, and the
// tree-edit distance timed on a distinct pair (full DP) versus an
// identical pair (subtree-hash memo short-circuit). MapEqual records the
// equivalence check the precompiled index is contractually bound to — a
// false value is a correctness bug, not a performance result.
type HotPathPoint struct {
	Docs int

	SerialMineMs float64

	ColdMapMs float64
	WarmMapMs float64
	MemoHits  int64 // conform index reuses during the warm pass
	MapEqual  bool  // warm conformed XML byte-identical to cold

	TreeDistNs     float64 // distinct pair: full Zhang-Shasha DP
	TreeDistMemoNs float64 // identical pair: hash short-circuit
}

// HotPathResult is the E12 sweep across corpus sizes.
type HotPathResult struct {
	Points []HotPathPoint
}

// RunHotPath measures the round-2 hot-path optimizations over growing
// corpus slices: the serial path-mining fold, conformance mapping against a
// cold versus precompiled DTD, and the memoized tree-edit distance. Every
// mapping pair is also checked for exact output equality, so the sweep
// doubles as an end-to-end equivalence run.
func RunHotPath(sizes []int, seed int64) (HotPathResult, error) {
	g := corpus.New(corpus.Options{Seed: seed})
	max := 0
	for _, s := range sizes {
		if s > max {
			max = s
		}
	}
	all := g.Corpus(max)
	conv := resumeConverter()
	set := concept.ResumeSet()
	var res HotPathResult
	miner := &schema.Miner{SupThreshold: 0.5, RatioThreshold: 0.1,
		Constraints: concept.ResumeConstraints(), Set: set}
	for _, n := range sizes {
		var pt HotPathPoint
		pt.Docs = n
		docs := make([]*schema.DocPaths, n)
		trees := make([]*dom.Node, n)
		for i, r := range all[:n] {
			x, _ := conv.Convert(r.HTML)
			docs[i] = schema.Extract(x)
			trees[i] = x
		}

		start := time.Now()
		serial := miner.Discover(docs)
		pt.SerialMineMs = msSince(start)

		cold := dtd.FromSchema(serial, dtd.Options{})
		warm := dtd.FromSchema(serial, dtd.Options{})
		mapping.Precompile(warm)

		coldXML := make([]string, n)
		start = time.Now()
		for i, d := range trees {
			out, _ := mapping.Conform(d, cold)
			coldXML[i] = xmlout.Marshal(out)
		}
		pt.ColdMapMs = msSince(start)

		_, hits0 := mapping.MemoStats()
		pt.MapEqual = true
		start = time.Now()
		for i, d := range trees {
			out, _ := mapping.Conform(d, warm)
			if xmlout.Marshal(out) != coldXML[i] {
				pt.MapEqual = false
			}
		}
		pt.WarmMapMs = msSince(start)
		_, hits1 := mapping.MemoStats()
		pt.MemoHits = hits1 - hits0

		if n >= 2 {
			pt.TreeDistNs = timeTreeDist(trees[0], trees[1])
			pt.TreeDistMemoNs = timeTreeDist(trees[0], trees[0])
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// timeTreeDist reports the mean ns of repeated TreeDistance calls on one
// pair — enough repetitions to get a stable figure without testing.B.
func timeTreeDist(a, b *dom.Node) float64 {
	const reps = 200
	start := time.Now()
	for i := 0; i < reps; i++ {
		mapping.TreeDistance(a, b, mapping.UnitCosts())
	}
	return float64(time.Since(start).Nanoseconds()) / reps
}

func msSince(start time.Time) float64 {
	return float64(time.Since(start).Microseconds()) / 1000.0
}

// Report renders the E12 sweep.
func (r HotPathResult) Report() string {
	var b strings.Builder
	b.WriteString("E12 — Hot-path round 2: path mining, precompiled conform, memoized tree distance\n")
	b.WriteString("    docs   mine-serial     map-cold     map-warm   memo-hits   td-dp(ns)   td-memo(ns)\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "  %6d  %10.1fms  %9.1fms  %9.1fms  %10d  %10.0f  %12.0f\n",
			p.Docs, p.SerialMineMs, p.ColdMapMs, p.WarmMapMs,
			p.MemoHits, p.TreeDistNs, p.TreeDistMemoNs)
		if !p.MapEqual {
			fmt.Fprintf(&b, "          EQUIVALENCE FAIL: precompiled conform diverged from cold at %d docs\n", p.Docs)
		}
	}
	b.WriteString("  every row checks warm==cold conformed XML byte-for-byte\n")
	return b.String()
}
