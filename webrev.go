// Package webrev reproduces "Reverse Engineering for Web Data: From Visual
// to Semantic Structures" (Chung, Gertz, Sundaresan; ICDE 2002): a system
// that converts topic-specific HTML documents into concept-tagged XML,
// discovers a majority schema over the results, derives a DTD with element
// ordering and repetition, and maps non-conforming documents into a
// homogeneous XML repository.
//
// The package is a thin facade over the internal packages; see DESIGN.md
// for the system inventory and README.md for a walkthrough.
//
//	pipe, err := webrev.NewResumePipeline()
//	doc := pipe.Convert("resume-1", html)
//	repo, err := pipe.Build(sources)
//	fmt.Print(repo.DTD.Render())
package webrev

import (
	"context"

	"webrev/internal/concept"
	"webrev/internal/core"
	"webrev/internal/crawler"
	"webrev/internal/dom"
	"webrev/internal/obs"
	"webrev/internal/repository"
	"webrev/internal/xmlout"
)

// Re-exported observability types (see internal/obs and DESIGN.md). Pass a
// *Collector as Config.Tracer to record per-stage timings and counters; the
// default is a no-op with near-zero overhead.
type (
	// Tracer receives span timings and counter updates from every pipeline
	// stage.
	Tracer = obs.Tracer
	// Collector is the recording Tracer; snapshot it for metrics.
	Collector = obs.Collector
	// Snapshot is a point-in-time copy of a Collector, serializable as
	// JSON.
	Snapshot = obs.Snapshot
	// StageStats aggregates the observations of one named stage.
	StageStats = obs.StageStats
)

// NewCollector returns an empty recording Tracer.
func NewCollector() *Collector { return obs.NewCollector() }

// PipelineStages lists the stage names Pipeline.Build records, in pipeline
// order.
var PipelineStages = obs.PipelineStages

// ResumeConcepts returns the paper's resume-domain concept vocabulary.
func ResumeConcepts() []Concept { return concept.ResumeConcepts() }

// ResumeConstraints returns the paper's §4.2 resume constraint classes.
func ResumeConstraints() *Constraints { return concept.ResumeConstraints() }

// Re-exported pipeline types. Pipeline is the main entry point.
type (
	// Pipeline converts, discovers, derives and maps. Build with New or
	// NewResumePipeline.
	Pipeline = core.Pipeline
	// Config parameterizes New.
	Config = core.Config
	// Source is one named HTML input for Pipeline.Build.
	Source = core.Source
	// Document is one converted input.
	Document = core.Document
	// Repository is the full pipeline output.
	Repository = core.Repository
	// Concept is one topic concept with its instances.
	Concept = concept.Concept
	// Constraints are optional concept constraints guiding the pipeline.
	Constraints = concept.Constraints
	// XMLRepository stores DTD-conformant documents, persists them, and
	// answers label-path queries (see Pipeline.BuildRepository).
	XMLRepository = repository.Repository
	// Crawler is the fault-tolerant topical crawler of the acquisition
	// path (retries, timeouts, cancellation; see internal/crawler).
	Crawler = crawler.Crawler
	// FetchPolicy governs the crawler's per-URL timeouts, retries and
	// backoff.
	FetchPolicy = crawler.FetchPolicy
	// CrawlReport accounts for every URL a crawl touched: fetched, failed
	// by error class, retried, skipped, truncated.
	CrawlReport = crawler.Report
)

// Re-exported fault-isolation types (see internal/core and the "Failure
// domains & recovery" section of ARCHITECTURE.md). Each per-document unit
// of work runs inside a fault boundary: failures quarantine the document
// instead of aborting the build, subject to Config.MaxFailureRatio.
type (
	// FailureRecord describes one per-document failure: stage, document,
	// kind, error, and (for panics) the stack.
	FailureRecord = core.FailureRecord
	// FailureKind classifies a FailureRecord (panic, timeout, error,
	// limit).
	FailureKind = core.FailureKind
	// Limits bounds the resources one document may consume (DOM size,
	// token budget, per-document deadline); set it on Config.Limits.
	Limits = core.Limits
	// QuarantineStore is the directory-backed log of quarantined
	// documents (Config.QuarantineDir) that `webrev quarantine` lists and
	// replays.
	QuarantineStore = core.QuarantineStore
	// QuarantinedDoc is one QuarantineStore entry.
	QuarantinedDoc = core.QuarantinedDoc
)

// Failure kinds a FailureRecord carries.
const (
	FailPanic   = core.FailPanic
	FailTimeout = core.FailTimeout
	FailError   = core.FailError
	FailLimit   = core.FailLimit
)

// OpenQuarantineStore opens (creating if needed) the quarantine store at
// dir — the directory a build configured as Config.QuarantineDir wrote.
func OpenQuarantineStore(dir string) (*QuarantineStore, error) {
	return core.OpenQuarantineStore(dir)
}

// Acquire crawls from seed under ctx with the given crawler and adapts the
// on-topic pages into pipeline Sources, alongside the crawl's report.
func Acquire(ctx context.Context, c *Crawler, seed string) ([]Source, *CrawlReport, error) {
	return core.Acquire(ctx, c, seed)
}

// AcquireStream starts the crawl in the background and returns a channel of
// on-topic Sources fit to feed Pipeline.BuildStream, so document conversion
// and schema statistics overlap the crawl (see ARCHITECTURE.md, streaming
// path). wait blocks until the crawl ends and returns its report.
func AcquireStream(ctx context.Context, c *Crawler, seed string) (src <-chan Source, wait func() (*CrawlReport, error)) {
	return core.AcquireStream(ctx, c, seed)
}

// SourceChan adapts an already materialized corpus into the channel
// Pipeline.BuildStream consumes.
func SourceChan(sources []Source) <-chan Source { return core.SourceChan(sources) }

// Gauge names the streaming build records on its tracer: current and peak
// in-flight documents, and the number of convert workers. The
// bounded-memory guarantee is peak <= Config.MaxInFlight.
const (
	GaugeStreamInFlight     = obs.GaugeStreamInFlight
	GaugeStreamInFlightPeak = obs.GaugeStreamInFlightPeak
	GaugeStreamShards       = obs.GaugeStreamShards
)

// LoadRepository reads the repository directory that XMLRepository.Save
// or a sharded build (its WORK/final) writes: a disk store plus
// schema.dtd. It opens the directory read-only and strictly, checks every
// document against its SHA-256 and the DTD, and returns the repository in
// memory with its path index built.
func LoadRepository(dir string) (*XMLRepository, error) { return repository.Load(dir) }

// Concept roles (see concept.Role).
const (
	RoleAny     = concept.RoleAny
	RoleTitle   = concept.RoleTitle
	RoleContent = concept.RoleContent
)

// New assembles a pipeline from a configuration.
func New(cfg Config) (*Pipeline, error) { return core.New(cfg) }

// NewResumePipeline returns a pipeline preconfigured with the paper's
// resume-domain knowledge: 24 concepts, 233 instances, and the §4.2
// constraint classes.
func NewResumePipeline() (*Pipeline, error) {
	return core.New(core.Config{
		Concepts:    concept.ResumeConcepts(),
		Constraints: concept.ResumeConstraints(),
		RootName:    "resume",
	})
}

// MarshalXML renders a converted document as indented XML text.
func MarshalXML(n *dom.Node) string { return xmlout.Marshal(n) }
