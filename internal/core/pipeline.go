// Package core wires the paper's full system together: document conversion
// (HTML → concept-tagged XML), majority schema discovery, DTD derivation,
// and DTD-guided document mapping into a homogeneous XML repository — the
// three steps the conclusion enumerates plus the Document Mapping Component.
package core

import (
	"context"
	"fmt"

	"webrev/internal/concept"
	"webrev/internal/convert"
	"webrev/internal/dom"
	"webrev/internal/dtd"
	"webrev/internal/faultinject"
	"webrev/internal/mapping"
	"webrev/internal/obs"
	"webrev/internal/repository"
	"webrev/internal/schema"
)

// Config parameterizes a Pipeline. Zero-value fields get the paper's
// defaults.
type Config struct {
	// Concepts is the topic vocabulary (required).
	Concepts []concept.Concept
	// Constraints guide conversion and prune schema discovery (optional).
	Constraints *concept.Constraints
	// RootName names the XML document root (e.g. "resume").
	RootName string
	// SupThreshold is the frequent-path support threshold (default 0.5).
	SupThreshold float64
	// RatioThreshold is the support-ratio threshold below which a path is
	// pruned relative to its parent (default 0.1).
	RatioThreshold float64
	// DTD carries repetition/optionality options.
	DTD dtd.Options
	// UnifySimilar, when in (0,1], runs the §3.2 unification step after
	// discovery: sibling schema components whose descendant label sets have
	// at least this Jaccard similarity are merged.
	UnifySimilar float64
	// Parallelism bounds concurrent document conversions and conformance
	// mappings in Build, ConvertAll, BuildRepository, BuildFromStats and
	// BuildStream (0 means GOMAXPROCS): it is the worker count of the
	// ordered pool they run on. Work on distinct documents is independent;
	// results keep input order.
	Parallelism int
	// MaxInFlight caps how many documents BuildStream holds between
	// acceptance from the input channel and the fold of their statistics
	// into the schema accumulator — the streaming build's backpressure
	// bound. Acceptance blocks (propagating backpressure to the producer,
	// e.g. the crawler) until a slot frees. 0 means 4x the worker count. The
	// cap is a hard bound: when it is below Parallelism, the streaming
	// build runs fewer workers rather than exceed it.
	MaxInFlight int
	// Tracer instruments every stage: per-stage timings (obs.StageConvert,
	// obs.StageExtract, obs.StageMine, obs.StageDerive, obs.StageMap) and
	// the paper's evaluation counters. Nil means the no-op tracer, which
	// costs nothing. Pass an *obs.Collector to retrieve metrics via
	// Pipeline.Metrics.
	Tracer obs.Tracer
	// Limits bounds the resources one document may consume (DOM size,
	// token budget, per-document deadline).
	// Over-limit documents are degraded or quarantined instead of
	// stalling the build. The zero value is unlimited.
	Limits Limits
	// MaxFailureRatio is the build's error budget: the fraction of input
	// documents that may be quarantined (conversion or mapping crash,
	// timeout, injected error) before Build/BuildStream fail. Failures
	// within the budget leave the build successful with partial results
	// and the records on Repository.Quarantined. 0 means the default 0.5;
	// negative means zero tolerance — any quarantined document fails the
	// build.
	MaxFailureRatio float64
	// QuarantineDir, when set, persists every quarantined document —
	// failure record plus original HTML — to this directory, so the
	// `webrev quarantine` subcommand can list and replay them after a
	// fix.
	QuarantineDir string
	// CheckpointDir, when set, makes BuildStream crash-resumable: the
	// build's shard checkpoint — state.json (progress and failure records)
	// plus the conv/ segment of converted documents — is written there,
	// and a later BuildStream over the same source stream resumes from it,
	// re-extracting the kept documents' statistics instead of converting
	// them again. The documents of a checkpointed build are read back from
	// the segment for mapping, so they carry their converted XML but zero
	// conversion Stats.
	CheckpointDir string
	// Inject, when non-nil, fires deterministic faults (panics, delays,
	// errors) into the per-document convert and map stages — the chaos
	// hook the fault-tolerance tests and experiment E10 use. Nil injects
	// nothing.
	Inject *faultinject.Stage
}

// Pipeline is the assembled system. Create one with New.
type Pipeline struct {
	set  *concept.Set
	cfg  Config
	conv *convert.Converter
	tr   obs.Tracer
}

// New validates the configuration and assembles a Pipeline.
func New(cfg Config) (*Pipeline, error) {
	if len(cfg.Concepts) == 0 {
		return nil, fmt.Errorf("core: no concepts configured")
	}
	set, err := concept.NewSet(cfg.Concepts...)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if cfg.SupThreshold == 0 {
		// 0.3 keeps the nested entry structure (institution/degree/date
		// under education) that heterogeneous author orderings split across
		// several frequent-path variants; 0.5 collapses sections to leaves.
		cfg.SupThreshold = 0.3
	}
	if cfg.RatioThreshold == 0 {
		cfg.RatioThreshold = 0.1
	}
	tr := obs.OrNop(cfg.Tracer)
	conv := convert.New(set, convert.Options{
		RootName:    cfg.RootName,
		Constraints: cfg.Constraints,
		Limits: convert.Limits{
			MaxDOMNodes: cfg.Limits.MaxDOMNodes,
			MaxDepth:    cfg.Limits.MaxDepth,
			MaxTokens:   cfg.Limits.MaxTokens,
		},
		Tracer: tr,
	})
	return &Pipeline{set: set, cfg: cfg, conv: conv, tr: tr}, nil
}

// Set returns the compiled concept set.
func (p *Pipeline) Set() *concept.Set { return p.set }

// Tracer returns the pipeline's tracer (the no-op tracer when none was
// configured).
func (p *Pipeline) Tracer() obs.Tracer { return p.tr }

// Metrics returns a snapshot of the pipeline's recorded stage timings and
// counters, or nil when the configured tracer does not record (the no-op
// default).
func (p *Pipeline) Metrics() *obs.Snapshot {
	if c, ok := p.tr.(*obs.Collector); ok {
		return c.Snapshot()
	}
	return nil
}

// Document is one converted input.
type Document struct {
	Source string // identifier: URL, filename, or generator id
	// XML is the concept-tagged tree the converter produced.
	XML *dom.Node
	// Stats carries the conversion's token and identification counts.
	Stats convert.Stats
	// Paths caches the document's label-path representation, extracted at
	// most once per document (ExtractPaths) and shared by every mine call
	// and every build.
	Paths *schema.DocPaths
}

// Convert transforms one HTML source into its XML document, timed under
// obs.StageConvert (the converter's sub-rules record their own sub-spans).
func (p *Pipeline) Convert(source, html string) *Document {
	sp := p.tr.StartSpan(obs.StageConvert)
	x, stats := p.conv.Convert(html)
	sp.End()
	if p.tr.Enabled() {
		p.tr.Add(obs.CtrDocsConverted, 1)
		p.tr.Add(obs.CtrBytesIn, int64(len(html)))
	}
	return &Document{Source: source, XML: x, Stats: stats}
}

// ConvertAll converts every source concurrently (bounded by
// Config.Parallelism), preserving input order in the result.
func (p *Pipeline) ConvertAll(sources []Source) []*Document {
	out := make([]*Document, 0, len(sources))
	w, next := p.workers(), 0
	runOrdered(context.Background(), w, 4*w, func(context.Context) (Source, bool, error) {
		if next == len(sources) {
			return Source{}, false, nil
		}
		next++
		return sources[next-1], true, nil
	}, func(s Source) *Document {
		return p.Convert(s.Name, s.HTML)
	}, func(d *Document) error {
		out = append(out, d)
		return nil
	})
	return out
}

// convertGuarded converts one source inside the per-document fault
// boundary: panics, injected errors, and deadline overruns come back as a
// FailureRecord instead of crashing the build. On success the returned
// record is nil; a FailLimit record accompanies a document that was kept
// but truncated by Limits.
func (p *Pipeline) convertGuarded(name, html string) (d *Document, degraded, failed *FailureRecord) {
	failed = runGuarded(obs.StageConvert, name, p.cfg.Limits.DocTimeout, func() error {
		if err := p.cfg.Inject.Fire(obs.StageConvert, name); err != nil {
			return err
		}
		d = p.Convert(name, html)
		return nil
	})
	if failed != nil {
		if p.tr.Enabled() {
			p.tr.Add(obs.CtrDocsQuarantined, 1)
		}
		return nil, nil, failed
	}
	if d.Stats.Truncated {
		degraded = &FailureRecord{
			Stage: obs.StageConvert,
			URL:   name,
			Kind:  FailLimit,
			Err:   "conversion truncated by resource limits",
		}
		if p.tr.Enabled() {
			p.tr.Add(obs.CtrDocsDegraded, 1)
		}
	}
	return d, degraded, nil
}

// conformGuarded maps one converted document to the DTD inside the fault
// boundary: panics, injected errors, and deadline overruns come back as
// the failed record, which quarantines the document.
func (p *Pipeline) conformGuarded(d *Document, dt *dtd.DTD) (out *dom.Node, st mapping.EditStats, failed *FailureRecord) {
	failed = runGuarded(obs.StageMap, d.Source, p.cfg.Limits.DocTimeout, func() error {
		if err := p.cfg.Inject.Fire(obs.StageMap, d.Source); err != nil {
			return err
		}
		out, st = mapping.ConformTraced(d.XML, dt, p.tr)
		return nil
	})
	if failed != nil {
		if p.tr.Enabled() {
			p.tr.Add(obs.CtrDocsQuarantined, 1)
		}
		return nil, mapping.EditStats{}, failed
	}
	return out, st, nil
}

// Repository is the result of the full pipeline over a corpus.
type Repository struct {
	// Docs holds the converted documents that survived the build.
	Docs []*Document
	// Schema is the majority schema mined over Docs.
	Schema *schema.Schema
	// DTD is the document type definition derived from Schema.
	DTD *dtd.DTD
	// Conformed holds each document after DTD-guided mapping, aligned with
	// Docs; MapStats records the edits each needed. In a partial build the
	// two may be shorter than Docs — use MappedDocs for the aligned count.
	Conformed []*dom.Node
	// MapStats records the edit counts mapping spent per document, aligned
	// with Conformed.
	MapStats []mapping.EditStats
	// Quarantined records the documents dropped from the build by the
	// per-document fault boundary (panic, timeout, or error in conversion
	// or mapping). A build that returns a non-nil Repository with entries
	// here succeeded within its error budget (Config.MaxFailureRatio).
	Quarantined []FailureRecord
	// Degraded records the documents kept in the build but limited by
	// Config.Limits: conversions truncated by node/depth/token caps.
	Degraded []FailureRecord
	// TotalInput is the number of source documents the build was given,
	// including quarantined ones — the denominator of FailureRatio.
	TotalInput int
}

// Export stores the build's conformed documents in a queryable,
// persistable repository.Repository governed by the derived DTD — the
// snapshot form webrevd serves and Save/Load persist. Documents the fault
// boundary quarantined are absent; a conformed tree that still fails DTD
// validation is skipped rather than failing the export.
func (r *Repository) Export() *repository.Repository {
	repo := repository.New(r.DTD)
	for i, c := range r.Conformed {
		// A tree the DTD rejects is left out; the rest still export.
		_ = repo.Add(r.Docs[i].Source, c)
	}
	return repo
}

// FailureRatio returns the fraction of input documents the build
// quarantined; 0 for an empty build.
func (r *Repository) FailureRatio() float64 {
	if r.TotalInput == 0 {
		return 0
	}
	return float64(len(r.Quarantined)) / float64(r.TotalInput)
}

// MappedDocs returns the number of documents that went through conformance
// mapping — min(len(Docs), len(MapStats)), so partial builds (MapStats
// shorter than Docs) and inconsistent inputs (longer) are both safe.
func (r *Repository) MappedDocs() int {
	n := len(r.MapStats)
	if len(r.Docs) < n {
		n = len(r.Docs)
	}
	return n
}

// ConformanceRate returns the fraction of converted documents that already
// conformed to the DTD before mapping. Documents not yet mapped (a partial
// build whose MapStats is shorter than Docs) count as non-conforming;
// an empty repository rates 0.
func (r *Repository) ConformanceRate() float64 {
	if len(r.Docs) == 0 {
		return 0
	}
	n := 0
	for _, s := range r.MapStats[:r.MappedDocs()] {
		if s.Cost() == 0 {
			n++
		}
	}
	return float64(n) / float64(len(r.Docs))
}

// TotalMapCost sums the edit operations mapping performed over the mapped
// documents (stats beyond len(Docs) are ignored).
func (r *Repository) TotalMapCost() int {
	total := 0
	for _, s := range r.MapStats[:r.MappedDocs()] {
		total += s.Cost()
	}
	return total
}

// ExtractPaths returns the document's label-path representation, extracting
// it (timed under obs.StageExtract) on first use and caching it on the
// document. Repeated mine calls — and every build — therefore share one
// extraction pass per document.
func (p *Pipeline) ExtractPaths(d *Document) *schema.DocPaths {
	if d.Paths == nil {
		d.Paths = schema.ExtractTraced(d.XML, p.tr)
	}
	return d.Paths
}

// miner assembles the configured frequent-path miner.
func (p *Pipeline) miner() *schema.Miner {
	return &schema.Miner{
		SupThreshold:   p.cfg.SupThreshold,
		RatioThreshold: p.cfg.RatioThreshold,
		Constraints:    p.cfg.Constraints,
		Set:            p.set,
		Tracer:         p.tr,
	}
}

// unify applies the configured schema-unification step.
func (p *Pipeline) unify(s *schema.Schema) *schema.Schema {
	if p.cfg.UnifySimilar > 0 {
		schema.Unify(s, p.cfg.UnifySimilar)
	}
	return s
}

// MineStats mines accumulated corpus statistics into the majority schema,
// applying the configured unification step — the mining entry point of
// every build (the merged shard accumulators) and of the watch loop's
// persistent accumulator. Folding every document into one
// accumulator in corpus-index order and mining it here is exactly
// DiscoverSchema over the same documents.
func (p *Pipeline) MineStats(acc *schema.Accumulator) *schema.Schema {
	return p.unify(p.miner().DiscoverStats(acc))
}

// DiscoverSchema mines the majority schema over converted documents: their
// label paths (extracted once per document and cached, timed under
// obs.StageExtract) fold into one accumulator in slice order, which
// MineStats mines.
func (p *Pipeline) DiscoverSchema(docs []*Document) *schema.Schema {
	acc := schema.NewAccumulator(0)
	for i, d := range docs {
		acc.Add(i, p.ExtractPaths(d))
	}
	return p.MineStats(acc)
}

// DeriveDTD turns a schema into a DTD with the configured options, timed
// under obs.StageDerive. The returned DTD carries a precompiled
// conformance index (mapping.Precompile), so every parallel mapping worker
// starts on a warm cache — which also makes the "map.memo_hits" counter
// deterministic: one hit per conformed document.
func (p *Pipeline) DeriveDTD(s *schema.Schema) *dtd.DTD {
	sp := p.tr.StartSpan(obs.StageDerive)
	d := dtd.FromSchema(s, p.cfg.DTD)
	sp.End()
	mapping.Precompile(d)
	if p.tr.Enabled() {
		p.tr.Add(obs.CtrDTDElements, int64(d.Len()))
	}
	return d
}

// Build runs the complete pipeline: convert every source, discover the
// majority schema over the surviving documents, derive the DTD, and map
// every survivor to conform.
//
// Conversion and DTD-guided mapping both run on the ordered pool with
// Config.Parallelism workers: the build is one in-memory shard of the
// engine (see engine.go), and results keep input order regardless of
// worker interleaving, so parallel and serial builds produce identical
// repositories.
//
// Each per-document unit of work runs inside a fault boundary: a panic,
// per-document deadline overrun (Limits.DocTimeout), or injected error
// quarantines that document — it is dropped from Docs/Conformed/MapStats
// and recorded on Repository.Quarantined — instead of aborting the build.
// The build fails only when every document is quarantined or the
// quarantined fraction exceeds the error budget (Config.MaxFailureRatio);
// on a budget failure the partial Repository is returned alongside the
// error for inspection.
func (p *Pipeline) Build(sources []Source) (*Repository, error) {
	return p.run(context.Background(), p.memBuild(&shard{next: rangeFeed(0, 0, len(sources), func(i int) (Source, error) {
		return sources[i], nil
	})}))
}

// BuildFromStats runs the discover → derive → map tail of the pipeline over
// already-converted documents whose extraction statistics are pre-folded in
// acc: the schema is mined from the accumulator (MineStats), the DTD derived
// from it, and every document mapped to conform under the same fault
// boundary and error budget as Build. The build is one shard seeded
// with docs and acc, so it has no convert phase.
//
// This is the incremental-rebuild engine of the watch loop
// (internal/watch): after a recrawl cycle retires changed documents'
// statistics (Accumulator.Subtract) and folds their replacements in, the
// repository is re-derived here without reconverting the unchanged corpus.
// Because accumulator folding is exact, a BuildFromStats over an
// incrementally maintained accumulator is byte-identical to a cold
// Build over the same final corpus state.
//
// The docs slice is only read; acc is mined, not modified.
func (p *Pipeline) BuildFromStats(ctx context.Context, docs []*Document, acc *schema.Accumulator) (*Repository, error) {
	if acc.Docs() != len(docs) {
		return nil, fmt.Errorf("core: accumulator folds %d documents, corpus has %d", acc.Docs(), len(docs))
	}
	return p.run(ctx, p.memBuild(&shard{docs: docs, acc: acc, st: shardState{Done: len(docs), Stored: len(docs)}}))
}

// Source is one named HTML input.
type Source struct {
	// Name identifies the document (a URL for acquired corpora); it becomes
	// Document.Source and the repository key.
	Name string
	// HTML is the raw page markup.
	HTML string
}

// ConvertSource converts one source under the same per-document fault
// boundary as Build: a panic, per-document deadline overrun, or injected
// fault comes back as the failed record (document nil) instead of
// propagating; a conversion degraded by Config.Limits comes back with the
// degraded record alongside the (truncated) document. This is the
// single-document entry point the watch loop (internal/watch) uses to fold
// changed pages without rebuilding the corpus, and `webrev quarantine
// replay` uses to re-run a quarantined document after a fix.
func (p *Pipeline) ConvertSource(s Source) (d *Document, degraded, failed *FailureRecord) {
	return p.convertGuarded(s.Name, s.HTML)
}

// BuildRepository runs the complete pipeline (Build) and stores every
// conformed document in a queryable, persistable repository governed by
// the derived DTD (Repository.Export).
func (p *Pipeline) BuildRepository(sources []Source) (*repository.Repository, error) {
	built, err := p.Build(sources)
	if err != nil {
		return nil, err
	}
	return built.Export(), nil
}
