// Package experiments regenerates every result in the paper's evaluation
// section (§4), the two ablations behind its claims, and the system
// experiments no other tool measures. Each Run function returns a
// structured result whose Report method prints the rows/series
// EXPERIMENTS.md quotes; `webrev experiments` runs them by id:
//
//	E1 (Figure 4, §4.1)  RunAccuracy          accuracy histogram
//	E2 (§4.2)            RunConstraints       search-space reduction
//	E3 (Figure 5, §4.3)  RunScalability       running time vs corpus size
//	E4 (§4.4)            RunSampleDTD         discovered DTD over 1400 docs
//	E5 (ablation)        RunSchemaComparison  majority vs DataGuide vs lower bound
//	E6 (ablation)        RunClassifier        Bayes classifier, incomplete vocabulary
//	E7 (robustness)      RunRobustness        crawl under injected faults
//	E10 (fault isol.)    RunFaultTolerance    build under injected stage faults
//	E13 (drift)          RunDriftDetection    template mutation vs detection
package experiments

import (
	"fmt"
	"strings"
	"time"

	"webrev/internal/baseline"
	"webrev/internal/concept"
	"webrev/internal/convert"
	"webrev/internal/corpus"
	"webrev/internal/dom"
	"webrev/internal/dtd"
	"webrev/internal/mapping"
	"webrev/internal/metrics"
	"webrev/internal/schema"
)

// Paper-reported reference values (for EXPERIMENTS.md comparisons).
const (
	PaperAvgErrors       = 3.9   // §4.1 average logical errors per document
	PaperAvgConceptNodes = 53.7  // §4.1 average concept nodes per document
	PaperAvgErrorRate    = 0.092 // §4.1 average error percentage
	PaperExhaustiveSpace = 7962623
	PaperConstrainedSize = 1871
	PaperExploredNodes   = 73
	PaperDTDDocs         = 1400
	PaperDTDElements     = 20
)

func resumeConverter() *convert.Converter {
	return convert.New(concept.ResumeSet(), convert.Options{
		RootName:    "resume",
		Constraints: concept.ResumeConstraints(),
	})
}

// ---------------------------------------------------------------------------
// E1: data extraction accuracy (Figure 4)
// ---------------------------------------------------------------------------

// AccuracyResult reproduces §4.1 / Figure 4.
type AccuracyResult struct {
	Docs      int
	Aggregate metrics.Aggregate
	Histogram metrics.Histogram
}

// RunAccuracy converts nDocs generated resumes, measures each against its
// ground truth, and buckets the per-document error rates as in Figure 4.
// The paper inspected 50 documents manually.
func RunAccuracy(nDocs int, seed int64) AccuracyResult {
	g := corpus.New(corpus.Options{Seed: seed})
	conv := resumeConverter()
	var results []metrics.Result
	for _, r := range g.Corpus(nDocs) {
		got, _ := conv.Convert(r.HTML)
		results = append(results, metrics.Compare(got, r.Truth))
	}
	return AccuracyResult{
		Docs:      nDocs,
		Aggregate: metrics.Summarize(results),
		Histogram: metrics.HistogramOf(results, 0.04, 6),
	}
}

// Report renders the E1 result next to the paper's figures.
func (r AccuracyResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E1 — Data extraction accuracy (Figure 4, §4.1) over %d documents\n", r.Docs)
	fmt.Fprintf(&b, "  avg errors/doc        %6.2f   (paper: %.1f)\n", r.Aggregate.AvgErrors, PaperAvgErrors)
	fmt.Fprintf(&b, "  avg concept nodes/doc %6.1f   (paper: %.1f)\n", r.Aggregate.AvgConceptNodes, PaperAvgConceptNodes)
	fmt.Fprintf(&b, "  avg error rate        %6.2f%%  (paper: %.1f%%)\n", r.Aggregate.AvgErrorRate*100, PaperAvgErrorRate*100)
	fmt.Fprintf(&b, "  accuracy              %6.2f%%  (paper: %.1f%%)\n", r.Aggregate.Accuracy()*100, (1-PaperAvgErrorRate)*100)
	b.WriteString("  error-rate histogram (Figure 4):\n")
	for _, line := range strings.Split(strings.TrimRight(r.Histogram.String(), "\n"), "\n") {
		b.WriteString("    " + line + "\n")
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// E2: concept constraints (§4.2)
// ---------------------------------------------------------------------------

// ConstraintsResult reproduces the §4.2 search-space figures.
type ConstraintsResult struct {
	Concepts            int
	MaxDepth            int
	Exhaustive          int // all label paths up to depth 4 (paper: 7,962,623)
	Constrained         int // admissible under constraints (paper: 1,871)
	ExploredConstrained int // non-zero-support nodes actually explored (paper: 73)
	ExploredFree        int // explored without constraints, for contrast
	SchemaNodesFree     int
	SchemaNodesCons     int
}

// RunConstraints measures the search space exhaustively, under constraints,
// and as actually explored over a converted corpus of nDocs documents.
func RunConstraints(nDocs int, seed int64) ConstraintsResult {
	set := concept.ResumeSet()
	cons := concept.ResumeConstraints()
	res := ConstraintsResult{
		Concepts:   set.Len(),
		MaxDepth:   cons.MaxDepth + 1, // the paper counts the root as depth 1
		Exhaustive: concept.PaperExhaustive(set.Len(), cons.MaxDepth+1),
		// +1: the paper's 1871 includes the trie root
		// (1 + 11 + 11·13 + 11·13·12).
		Constrained: cons.CountConstrainedPaths(set, cons.MaxDepth) + 1,
	}
	g := corpus.New(corpus.Options{Seed: seed})
	conv := resumeConverter()
	var docs []*schema.DocPaths
	for _, r := range g.Corpus(nDocs) {
		x, _ := conv.Convert(r.HTML)
		docs = append(docs, schema.Extract(x))
	}
	free := (&schema.Miner{SupThreshold: 0.3, RatioThreshold: 0.1}).Discover(docs)
	constrained := (&schema.Miner{SupThreshold: 0.3, RatioThreshold: 0.1, Constraints: cons, Set: set}).Discover(docs)
	res.ExploredFree = free.Explored
	res.ExploredConstrained = constrained.Explored
	res.SchemaNodesFree = free.CountNodes()
	res.SchemaNodesCons = constrained.CountNodes()
	return res
}

// Report renders the E2 result next to the paper's figures.
func (r ConstraintsResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E2 — Concept constraints (§4.2): %d concepts, depth ≤ %d\n", r.Concepts, r.MaxDepth)
	fmt.Fprintf(&b, "  exhaustive label paths      %10d  (paper: %d)\n", r.Exhaustive, PaperExhaustiveSpace)
	fmt.Fprintf(&b, "  admissible under constraints%10d  (paper: %d)  = %.4f%% of exhaustive\n",
		r.Constrained, PaperConstrainedSize, 100*float64(r.Constrained)/float64(r.Exhaustive))
	fmt.Fprintf(&b, "  explored (constrained)      %10d  (paper: %d)  = %.5f%% of exhaustive\n",
		r.ExploredConstrained, PaperExploredNodes, 100*float64(r.ExploredConstrained)/float64(r.Exhaustive))
	fmt.Fprintf(&b, "  explored (unconstrained)    %10d\n", r.ExploredFree)
	fmt.Fprintf(&b, "  schema nodes found          %10d constrained / %d unconstrained\n",
		r.SchemaNodesCons, r.SchemaNodesFree)
	return b.String()
}

// ---------------------------------------------------------------------------
// E3: scalability (Figure 5)
// ---------------------------------------------------------------------------

// ScalePoint is one measurement of Figure 5: pipeline running time against
// the three input-size measures the paper plots.
type ScalePoint struct {
	Docs         int
	Nodes        int // XML nodes across the corpus
	ConceptNodes int // concept (keyword) nodes across the corpus
	Millis       float64
}

// ScalabilityResult is the Figure 5 series.
type ScalabilityResult struct {
	Points []ScalePoint
	// R2 is the coefficient of determination of a least-squares linear fit
	// of Millis against ConceptNodes; the paper reports "a very strong
	// linear relationship".
	R2 float64
}

// scaleRepeats is how often RunScalability times each corpus size. A
// point keeps the fastest run: a single timing of a few milliseconds
// carries enough scheduler and GC noise to break the linear fit.
const scaleRepeats = 5

// RunScalability runs conversion + schema discovery for growing corpus
// slices (the paper scales to 380 documents) and fits time vs size. Each
// size is timed as the fastest of scaleRepeats runs, taken in rounds over
// all sizes, so a burst of host load slows one run of several sizes rather
// than every run of one.
func RunScalability(sizes []int, seed int64) ScalabilityResult {
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
	run := func(n int) ScalePoint {
		start := time.Now()
		var docs []*schema.DocPaths
		nodes, conceptNodes := 0, 0
		for _, r := range all[:n] {
			x, stats := conv.Convert(r.HTML)
			d := schema.Extract(x)
			docs = append(docs, d)
			nodes += d.Nodes
			conceptNodes += stats.ConceptNodes
		}
		m := &schema.Miner{SupThreshold: 0.5, RatioThreshold: 0.1,
			Constraints: concept.ResumeConstraints(), Set: set}
		m.Discover(docs)
		return ScalePoint{
			Docs:         n,
			Nodes:        nodes,
			ConceptNodes: conceptNodes,
			Millis:       float64(time.Since(start).Microseconds()) / 1000.0,
		}
	}
	res := ScalabilityResult{Points: make([]ScalePoint, len(sizes))}
	for i := 0; i < scaleRepeats; i++ {
		for j, n := range sizes {
			if p := run(n); i == 0 || p.Millis < res.Points[j].Millis {
				res.Points[j] = p
			}
		}
	}
	res.R2 = linearR2(res.Points)
	return res
}

// linearR2 fits Millis = a + b*ConceptNodes by least squares and returns R².
func linearR2(pts []ScalePoint) float64 {
	if len(pts) < 2 {
		return 1
	}
	n := float64(len(pts))
	var sx, sy, sxx, sxy, syy float64
	for _, p := range pts {
		x, y := float64(p.ConceptNodes), p.Millis
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		syy += y * y
	}
	num := n*sxy - sx*sy
	den := (n*sxx - sx*sx) * (n*syy - sy*sy)
	if den <= 0 {
		return 1
	}
	return num * num / den
}

// Report renders the Figure 5 series.
func (r ScalabilityResult) Report() string {
	var b strings.Builder
	b.WriteString("E3 — Scalability (Figure 5, §4.3): convert + discover, growing corpus\n")
	fmt.Fprintf(&b, "    docs     nodes  concept-nodes   time(ms, fastest of %d)\n", scaleRepeats)
	for _, p := range r.Points {
		fmt.Fprintf(&b, "  %6d  %8d  %13d  %9.1f\n", p.Docs, p.Nodes, p.ConceptNodes, p.Millis)
	}
	fmt.Fprintf(&b, "  linear fit R² (time vs concept nodes) = %.4f  (paper: \"very strong linear relationship\")\n", r.R2)
	return b.String()
}

// ---------------------------------------------------------------------------
// E4: sample run (§4.4)
// ---------------------------------------------------------------------------

// DTDResult reproduces the §4.4 sample run: the DTD discovered over a large
// corpus.
type DTDResult struct {
	Docs     int
	Elements int
	DTDText  string
}

// RunSampleDTD discovers the schema for nDocs resumes (the paper used over
// 1400) and derives the DTD.
func RunSampleDTD(nDocs int, seed int64) DTDResult {
	g := corpus.New(corpus.Options{Seed: seed})
	conv := resumeConverter()
	var docs []*schema.DocPaths
	for _, r := range g.Corpus(nDocs) {
		x, _ := conv.Convert(r.HTML)
		docs = append(docs, schema.Extract(x))
	}
	m := &schema.Miner{SupThreshold: 0.3, RatioThreshold: 0.1,
		Constraints: concept.ResumeConstraints(), Set: concept.ResumeSet()}
	s := m.Discover(docs)
	d := dtd.FromSchema(s, dtd.Options{})
	return DTDResult{Docs: nDocs, Elements: d.Len(), DTDText: d.RenderElements()}
}

// Report renders the discovered DTD.
func (r DTDResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E4 — Sample run (§4.4): DTD over %d documents (paper: %d docs, %d elements)\n",
		r.Docs, PaperDTDDocs, PaperDTDElements)
	fmt.Fprintf(&b, "  elements discovered: %d\n", r.Elements)
	for _, line := range strings.Split(strings.TrimRight(r.DTDText, "\n"), "\n") {
		b.WriteString("  " + line + "\n")
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// E5: majority schema vs DataGuide vs lower bound (ablation)
// ---------------------------------------------------------------------------

// SchemaVariant is one row of the E5 comparison.
type SchemaVariant struct {
	Name        string
	SchemaPaths int
	DTDElements int
	// AvgMapCost is the mean number of edits Conform needs per document.
	AvgMapCost float64
	// ConformedOK is the fraction of documents that validate after mapping.
	ConformedOK float64
	// AlreadyConforming is the fraction valid before any mapping.
	AlreadyConforming float64
	// AvgDistance is the mean tree edit distance from each document to its
	// conformed version — information disturbance caused by the schema.
	AvgDistance float64
	// Retention is the mean fraction of a document's concept nodes that
	// survive mapping with their element structure intact. A lower-bound
	// schema conforms cheaply by folding every non-universal element into
	// text — low retention is how "does not suffice" manifests.
	Retention float64
}

// SchemaComparisonResult quantifies the paper's claim that repository
// integration needs a majority schema rather than an upper or lower bound.
type SchemaComparisonResult struct {
	Docs     int
	Variants []SchemaVariant
}

// RunSchemaComparison converts nDocs resumes and measures mapping costs
// against DTDs derived from the lower bound, majority, and DataGuide
// schemas.
func RunSchemaComparison(nDocs int, seed int64) SchemaComparisonResult {
	g := corpus.New(corpus.Options{Seed: seed})
	conv := resumeConverter()
	var trees []*dom.Node
	var docs []*schema.DocPaths
	for _, r := range g.Corpus(nDocs) {
		x, _ := conv.Convert(r.HTML)
		trees = append(trees, x)
		docs = append(docs, schema.Extract(x))
	}
	variants := []struct {
		name string
		s    *schema.Schema
	}{
		{"lower-bound", baseline.LowerBound(docs)},
		{"majority-0.5", baseline.Majority(docs, 0.5, 0.1)},
		{"majority-0.3", baseline.Majority(docs, 0.3, 0.1)},
		{"dataguide", baseline.DataGuide(docs)},
	}
	res := SchemaComparisonResult{Docs: nDocs}
	for _, v := range variants {
		d := dtd.FromSchema(v.s, dtd.Options{})
		row := SchemaVariant{Name: v.name, SchemaPaths: len(v.s.Paths()), DTDElements: d.Len()}
		totalCost, ok, already, dist, retention := 0, 0, 0, 0.0, 0.0
		for _, tr := range trees {
			if d.Conforms(tr) {
				already++
			}
			conformed, stats := mapping.Conform(tr, d)
			totalCost += stats.Cost()
			if d.Conforms(conformed) {
				ok++
			}
			dist += treeDistanceFast(tr, conformed)
			if orig := tr.CountElements(); orig > 0 {
				kept := conformed.CountElements() - stats.Inserted
				if kept < 0 {
					kept = 0
				}
				frac := float64(kept) / float64(orig)
				if frac > 1 {
					frac = 1
				}
				retention += frac
			}
		}
		n := float64(len(trees))
		row.AvgMapCost = float64(totalCost) / n
		row.ConformedOK = float64(ok) / n
		row.AlreadyConforming = float64(already) / n
		row.AvgDistance = dist / n
		row.Retention = retention / n
		res.Variants = append(res.Variants, row)
	}
	return res
}

// treeDistanceFast computes the unit-cost tree edit distance, guarding
// against quadratic blowup on very large documents by capping input size.
func treeDistanceFast(a, b *dom.Node) float64 {
	const maxNodes = 400
	if a.CountNodes() > maxNodes || b.CountNodes() > maxNodes {
		return float64(abs(a.CountNodes() - b.CountNodes()))
	}
	return mapping.TreeDistance(a, b)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Report renders the E5 comparison table.
func (r SchemaComparisonResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E5 — Schema ablation over %d documents: repository integration cost\n", r.Docs)
	b.WriteString("  variant        paths  dtd-elems  pre-conform  avg-map-cost  post-conform  avg-edit-dist  retention\n")
	for _, v := range r.Variants {
		fmt.Fprintf(&b, "  %-13s %6d  %9d  %10.1f%%  %12.2f  %11.1f%%  %13.2f  %8.1f%%\n",
			v.Name, v.SchemaPaths, v.DTDElements, v.AlreadyConforming*100,
			v.AvgMapCost, v.ConformedOK*100, v.AvgDistance, v.Retention*100)
	}
	return b.String()
}
