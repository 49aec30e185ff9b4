// Package obs is the pipeline's observability layer: named spans around
// every stage, monotonic stage timers, and typed counters/gauges for the
// quantities the paper's evaluation (§4) measures — documents converted,
// tokens classified, paths extracted and kept, edit operations per
// document, bytes in and out.
//
// The layer has two implementations of the Tracer interface. Nop() is the
// default everywhere: its methods are empty, its spans are zero-sized, and
// calls through it compile to near-zero overhead (no allocation, no lock),
// so instrumented code pays nothing when observability is off. NewCollector
// returns the recording implementation: a mutex-protected registry of stage
// timings and counters that any number of goroutines may feed concurrently.
// Snapshot freezes a Collector into a serializable value with a JSON writer
// (the -metrics FILE format), a human-readable summary table, and an
// expvar/pprof debug endpoint (see ServeDebug). Per-layer benchmark numbers
// come from `bash perfbench/run.sh --trace 1`.
//
// Stage and counter names are declared here as constants so producers
// (core, convert, schema, mapping, crawler) and consumers (CLIs, the
// experiment harness, golden tests) agree on the vocabulary.
package obs

import (
	"fmt"
	"time"
)

// Span is one in-flight timed region. End stops it; End on the zero span or
// a span from the no-op tracer does nothing, so spans can be ended
// unconditionally (usually via defer).
type Span interface {
	End()
}

// Tracer is the instrumentation interface threaded through the pipeline.
// Implementations must be safe for concurrent use.
type Tracer interface {
	// StartSpan begins a named timed region; the span's End records its
	// duration under name as a stage timing.
	StartSpan(name string) Span
	// Observe records an externally measured duration under name — the
	// bridge for subsystems that already track their own wall clock (the
	// crawler's Report).
	Observe(name string, d time.Duration)
	// Add increments the named counter by delta.
	Add(name string, delta int64)
	// Set sets the named gauge to v.
	Set(name string, v int64)
	// Enabled reports whether events are recorded. Instrumented code uses
	// it to gate work done only to feed metrics (e.g. measuring output
	// bytes).
	Enabled() bool
}

// Canonical stage names. Every pipeline stage times itself under one of
// these, so sinks and tests can enumerate them.
const (
	StageConvert = "pipeline.convert" // HTML → concept-tagged XML, per document
	StageExtract = "schema.extract"   // XML → label-path representation
	StageMine    = "schema.mine"      // frequent-path discovery
	StageDerive  = "dtd.derive"       // schema → DTD
	StageMap     = "map.conform"      // DTD-guided document mapping, per document
	StageCrawl   = "crawl"            // acquisition crawl (bridged from crawler.Report)
	// StageMerge times merging the shard accumulators of a build into the
	// one summary the miner mines; every build records it exactly once.
	StageMerge = "schema.merge"
	// StageCheckpoint times each checkpoint a build shard writes to its
	// directory (a streaming build's CheckpointDir, a sharded build's
	// shard-NNN).
	StageCheckpoint = "checkpoint.write"
	// StageCheckpointRestore times a resumed shard re-extracting its kept
	// documents' statistics from its conv/ segment.
	StageCheckpointRestore = "checkpoint.restore"
	// StageServe times one served repository request in webrevd (all
	// endpoints; the serve counters below split the traffic).
	StageServe = "serve.request"
	// StageServeSwap times building and atomically installing a new
	// serving snapshot, one per generation (internal/serve: NewServer,
	// Swap, TrySwap).
	StageServeSwap = "serve.swap"
	// StageWatch times one full continuous-operation cycle (conditional
	// recrawl, delta fold, incremental re-derive, drift report) of the
	// watch loop (internal/watch).
	StageWatch = "watch.cycle"
	// StageShardConvert times one shard worker's whole convert+fold pass
	// over its source range in a sharded build (core.BuildShardedFrom). The
	// per-shard span names come from ShardStage.
	StageShardConvert = "shard.convert"
	// StageShardMap times one shard worker's whole DTD-guided mapping pass
	// over its converted segment in a sharded build.
	StageShardMap = "shard.map"
)

// ShardStage returns the per-shard stage name under which one shard
// worker's phase is timed, e.g. ShardStage(StageShardConvert, 3) ==
// "shard.convert.003". The unsuffixed phase constants aggregate across
// shards.
func ShardStage(phase string, shard int) string {
	return fmt.Sprintf("%s.%03d", phase, shard)
}

// PipelineStages lists the stages a full Build exercises, in order.
var PipelineStages = []string{StageConvert, StageExtract, StageMine, StageDerive, StageMap}

// Canonical counter names.
const (
	CtrDocsConverted   = "docs.converted"      // documents through conversion
	CtrBytesIn         = "bytes.in"            // HTML bytes entering conversion
	CtrBytesOut        = "bytes.out"           // XML bytes of conformed output
	CtrTokens          = "tokens.total"        // tokens from the tokenization rule
	CtrTokensIdent     = "tokens.identified"   // tokens related to a concept
	CtrTokensUnident   = "tokens.unidentified" // tokens folded into parent val
	CtrClassifierHits  = "tokens.classified"   // tokens identified by the Bayes classifier
	CtrConceptNodes    = "concepts.nodes"      // concept elements produced
	CtrPathsExtracted  = "paths.extracted"     // distinct label paths across documents
	CtrPathsExplored   = "paths.explored"      // candidate paths tested by the miner
	CtrPathsPruned     = "paths.pruned"        // candidates rejected by constraints
	CtrPathsFrequent   = "paths.frequent"      // paths kept in the majority schema
	CtrDTDElements     = "dtd.elements"        // element declarations derived
	CtrMapEdits        = "map.edits"           // total edit operations across documents
	CtrMapDocs         = "map.docs"            // documents through conformance mapping
	CtrMapMemoHits     = "map.memo_hits"       // Conform calls reusing the precompiled DTD index
	CtrDocsQuarantined = "docs.quarantined"    // documents dropped by per-document fault isolation
	CtrDocsDegraded    = "docs.degraded"       // documents kept but truncated by limits
	CtrDocsRestored    = "docs.restored"       // documents restored from a build checkpoint (streaming or sharded)
	CtrCheckpoints     = "checkpoint.writes"   // checkpoints written by build shards (streaming or sharded)
	CtrCrawlFetched    = "crawl.fetched"
	CtrCrawlFailed     = "crawl.failed"
	CtrCrawlRetried    = "crawl.retried"
	CtrCrawlSkipped    = "crawl.skipped"
	CtrCrawlTruncated  = "crawl.truncated"
	// CtrCrawlNotModified counts conditional refetches answered 304 — pages
	// revalidated without a body transfer (recrawl cycles only).
	CtrCrawlNotModified = "crawl.not_modified"
	// CtrCrawlVanished counts page records retired by completed recrawls.
	CtrCrawlVanished = "crawl.vanished"
	CtrCrawlBytes    = "crawl.bytes"
	// Continuous-operation (watch loop) counters.
	CtrWatchCycles        = "watch.cycles"               // completed watch cycles
	CtrWatchDocsUnchanged = "watch.docs.unchanged"       // pages revalidated as current across cycles
	CtrWatchDocsChanged   = "watch.docs.changed"         // pages refolded after a content change
	CtrWatchDocsNew       = "watch.docs.new"             // pages first seen by a cycle
	CtrWatchDocsVanished  = "watch.docs.vanished"        // pages retired by a cycle
	CtrWatchDriftNew      = "watch.drift.paths.new"      // frequent paths appearing in drift reports
	CtrWatchDriftVanished = "watch.drift.paths.vanished" // frequent paths vanishing in drift reports
	// Serving-layer counters (webrevd / internal/serve).
	CtrServeRequests    = "serve.requests"     // requests served, all endpoints
	CtrServeErrors      = "serve.errors"       // requests answered with a 4xx/5xx
	CtrServeQueries     = "serve.queries"      // label-path query evaluations
	CtrServeResultHits  = "serve.result.hits"  // query responses served from the result cache
	CtrServeCompileHits = "serve.compile.hits" // queries served a cached compilation
	CtrServeSwaps       = "serve.swaps"        // serving snapshots installed (initial load included)
	// CtrServeShed counts requests rejected 503 by admission control
	// (in-flight semaphore saturated and the wait queue full or timed out).
	CtrServeShed = "serve.shed"
	// CtrServeTimeouts counts requests aborted by their propagated deadline
	// (server default or ?timeout= cap) and answered 504.
	CtrServeTimeouts = "serve.timeouts"
	// CtrServePanics counts handler panics converted to 500s by the
	// per-request recover boundary; the process never dies with the request.
	CtrServePanics = "serve.panics"
	// CtrServeReloadRejected counts reload attempts whose candidate snapshot
	// failed validation (or whose loader errored/panicked); the previous
	// generation keeps serving.
	CtrServeReloadRejected = "serve.reload_rejected"
	// CtrServeDrains counts graceful-drain sequences started (SIGTERM or an
	// explicit Daemon.Drain).
	CtrServeDrains = "serve.drains"
	// Disk-backed document store counters (internal/repository.DiskStore).
	// CtrStoreHits counts decoded-DOM reads served from the store's LRU.
	CtrStoreHits = "store.hits"
	// CtrStoreMisses counts decoded-DOM reads that had to load and parse
	// the XML blob from disk.
	CtrStoreMisses = "store.misses"
	// CtrStoreEvictions counts decoded DOMs dropped from the LRU to stay
	// under the MaxResidentDocs bound.
	CtrStoreEvictions = "store.evictions"
	// CtrStoreDeduped is incremented by no store: every append writes a
	// blob of its own. The name stays because perfbench's
	// repository.dedupe_ratio row reads it (as 0).
	CtrStoreDeduped = "store.deduped"
	// CtrShardsResumed counts shard workers of a sharded build that resumed
	// from a previous run's checkpoint instead of starting fresh.
	CtrShardsResumed = "shard.resumed"
)

// Canonical gauge names. Gauges record point-in-time levels (Set), not
// accumulating totals (Add).
const (
	// GaugeStreamInFlight is the number of documents currently inside the
	// streaming build — accepted from the input channel but not yet folded
	// into the schema statistics. Bounded by the configured in-flight cap.
	GaugeStreamInFlight = "stream.inflight"
	// GaugeStreamInFlightPeak is the high-water mark of
	// GaugeStreamInFlight over a whole streaming build; the bounded-memory
	// guarantee is peak <= cap.
	GaugeStreamInFlightPeak = "stream.inflight.peak"
	// GaugeStreamInFlightCap is the in-flight cap a streaming build
	// applied: Config.MaxInFlight, or its default when that is unset.
	GaugeStreamInFlightCap = "stream.inflight.cap"
	// GaugeStreamShards is the number of convert workers of a streaming or
	// sharded build: the streaming build's ordered-pool workers, or the
	// sharded build's shards (one worker each).
	GaugeStreamShards = "stream.shards"
	// GaugeServeInFlight is the number of requests currently admitted and
	// executing in the serving layer.
	GaugeServeInFlight = "serve.inflight"
	// GaugeServeInFlightPeak is the high-water mark of GaugeServeInFlight
	// over the server's lifetime; admission control guarantees peak <= cap.
	GaugeServeInFlightPeak = "serve.inflight.peak"
	// GaugeServeQueueDepth is the number of requests waiting in the
	// admission queue for an in-flight slot.
	GaugeServeQueueDepth = "serve.queue.depth"
)

// ServeEndpointStage returns the stage name under which one webrevd
// endpoint's latency is recorded, e.g. ServeEndpointStage("query") ==
// "serve.endpoint.query". The per-endpoint stages complement StageServe
// (which aggregates all endpoints) so overload investigations can tell a
// slow scan surface from a cheap health probe.
func ServeEndpointStage(endpoint string) string { return "serve.endpoint." + endpoint }

// MapOpCounter returns the counter name for one conformance-mapping edit
// kind, e.g. MapOpCounter("insert") == "map.ops.insert".
func MapOpCounter(kind string) string { return "map.ops." + kind }

// nop is the disabled tracer. All methods are empty; StartSpan returns a
// zero-sized span, so the interface conversions allocate nothing.
type nop struct{}

type nopSpan struct{}

func (nopSpan) End() {}

func (nop) StartSpan(string) Span         { return nopSpan{} }
func (nop) Observe(string, time.Duration) {}
func (nop) Add(string, int64)             {}
func (nop) Set(string, int64)             {}
func (nop) Enabled() bool                 { return false }

// Nop returns the shared no-op tracer.
func Nop() Tracer { return nop{} }

// OrNop returns t, or the no-op tracer when t is nil, so optional Tracer
// fields can be used without nil checks at every call site.
func OrNop(t Tracer) Tracer {
	if t == nil {
		return Nop()
	}
	return t
}
