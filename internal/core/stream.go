package core

import (
	"context"
	"os"
	"path/filepath"
	"sync/atomic"

	"webrev/internal/obs"
)

// BuildStream runs the complete pipeline over a channel of sources: the
// streaming counterpart of Build. Documents are converted, their label
// paths extracted, and their schema statistics folded into the
// accumulator as they arrive (see schema.Accumulator), so schema discovery
// overlaps document production — a crawl (AcquireStream), a generator, or
// any other producer — instead of waiting behind it. Once the input
// channel closes, the statistics merge (obs.StageMerge), the majority
// schema is mined and the DTD derived exactly as in Build, and every
// document is mapped to conform. The build is one shard of the engine
// (see engine.go) fed from the channel.
//
// Memory stays bounded while the input is open: at most Config.MaxInFlight
// documents are held between acceptance and statistics fold, and a
// document's HTML source is dropped as soon as its conversion finishes
// (only the converted XML tree is retained for the mapping stage).
// Acceptance blocks when the cap is reached, propagating backpressure to
// the producer. The peak level is recorded on the
// obs.GaugeStreamInFlightPeak gauge.
//
// Given the same sources in the same order, BuildStream's repository is
// byte-identical to Build's.
//
// Per-document work runs inside the same fault boundary as Build:
// a panic, per-document deadline overrun, or injected error quarantines
// the document (recorded on Repository.Quarantined) instead of aborting
// the stream, subject to the Config.MaxFailureRatio error budget.
//
// With Config.CheckpointDir set the build is crash-resumable: the
// directory holds the shard checkpoint — state.json plus the conv/ segment
// of converted documents — written every 256 documents, and a later
// BuildStream over the same source stream re-extracts the statistics of
// the segment's kept documents, skips the already-processed prefix and
// produces output byte-identical to an uninterrupted run. A completed
// build removes the checkpoint.
//
// On context cancellation the build abandons its result and returns the
// context error after the documents it accepted are folded (writing a
// final checkpoint first, when checkpointing is on).
func (p *Pipeline) BuildStream(ctx context.Context, in <-chan Source) (*Repository, error) {
	workers := p.workers()
	limit := p.cfg.MaxInFlight
	if limit <= 0 {
		limit = 4 * workers
	}
	// The cap is a hard memory bound: never run more workers than
	// documents allowed in flight.
	workers = min(workers, limit)

	// The channel adapter owns the in-flight gauges: a document is in
	// flight from its receipt until its fold commits.
	var inFlight, peak atomic.Int64
	gauge := func(delta int64) {
		cur := inFlight.Add(delta)
		for old := peak.Load(); cur > old && !peak.CompareAndSwap(old, cur); old = peak.Load() {
		}
		if p.tr.Enabled() {
			p.tr.Set(obs.GaugeStreamInFlight, cur)
		}
	}
	received := 0
	s := &shard{end: -1, dir: p.cfg.CheckpointDir, after: func() { gauge(-1) },
		next: func(ctx context.Context, i int) (Source, bool, error) {
			for {
				select {
				case <-ctx.Done():
					return Source{}, false, nil
				case src, ok := <-in:
					if !ok {
						return src, false, nil
					}
					if received++; received <= i {
						continue // restored from the checkpoint
					}
					gauge(1)
					return src, true, nil
				}
			}
		}}
	repo, err := p.run(ctx, &build{shards: []*shard{s}, workers: workers, limit: limit})
	if p.tr.Enabled() {
		p.tr.Set(obs.GaugeStreamInFlight, 0)
		p.tr.Set(obs.GaugeStreamInFlightPeak, peak.Load())
		p.tr.Set(obs.GaugeStreamShards, int64(workers))
	}
	switch {
	case ctx.Err() != nil:
		return nil, ctx.Err()
	case err != nil:
		return repo, err
	}
	if s.dir != "" {
		// The build completed; clear the checkpoint so a later run over
		// the same directory starts fresh instead of resuming into an
		// already-finished state.
		os.Remove(filepath.Join(s.dir, shardStateFile))
		os.RemoveAll(filepath.Join(s.dir, "conv"))
	}
	return repo, nil
}

// SourceChan adapts a slice of sources into the channel BuildStream
// consumes, for callers whose corpus is already materialized.
func SourceChan(sources []Source) <-chan Source {
	ch := make(chan Source)
	go func() {
		for _, s := range sources {
			ch <- s
		}
		close(ch)
	}()
	return ch
}
