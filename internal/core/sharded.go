package core

import (
	"context"
	"fmt"
	"path/filepath"

	"webrev/internal/dtd"
	"webrev/internal/obs"
	"webrev/internal/repository"
	"webrev/internal/schema"
)

// The sharded build scales the pipeline to corpora that cannot be resident
// in one process: it runs the engine (engine.go) with N disk shards, each
// converting a contiguous range of the input on one worker, folding schema
// statistics under global corpus indices, and appending converted XML to
// its own disk segment (repository.DiskStore). The engine's tail merges
// the shard accumulators — exactly commutative, so the mined schema and
// derived DTD are byte-identical to a single-process build — and maps each
// shard's converted documents into a per-shard conformed segment; the
// segments concatenate in shard order into the final disk-backed
// repository. Because shards cover contiguous ranges, concatenation
// preserves global input order, and because xmlout round-trips converted
// trees exactly, the final repository's documents are byte-identical to
// Build + Export over the same sources.
//
// Memory is flat in corpus size: a shard holds one document between
// conversion and fold, the accumulators are bounded by distinct label
// paths (not documents), and the map phase streams one document at a time
// through each shard's segment. Only the final store's decoded-DOM LRU
// (DiskOptions.MaxResidentDocs) retains trees.
//
// Each shard checkpoints durably (its flushed segment, then a state.json
// recording how far the range stands) every CheckpointEvery documents, so
// a killed shard resumes from its last checkpoint on the next
// BuildShardedFrom over the same directory — re-extracting its
// accumulator from the segment's kept documents — and the completed build
// is still byte-identical to an uninterrupted one.

// ShardOptions configures BuildShardedFrom.
type ShardOptions struct {
	// Shards is the number of independent shard workers (default 2). It is
	// clamped to the corpus size.
	Shards int
	// Dir is the build's working directory (required): shard-NNN/
	// subdirectories hold per-shard segments and checkpoint state, final/
	// holds the resulting disk-backed repository.
	Dir string
	// CheckpointEvery is the number of documents a shard processes between
	// durable checkpoints (default 256).
	CheckpointEvery int
	// Store configures the final repository's disk store — in particular
	// MaxResidentDocs, the decoded-DOM cache bound that keeps query-time
	// memory flat.
	Store repository.DiskOptions

	// kill, when non-nil, is the crash-injection test hook: it runs after
	// each document a shard finishes, and returning true makes that shard
	// stop immediately — no final checkpoint, no segment flush — as if the
	// process died. BuildShardedFrom then returns errShardKilled.
	kill func(shard, done int) bool
}

// ShardResult is the outcome of a sharded build.
type ShardResult struct {
	// Repo is the final repository, backed by the disk store in
	// Dir/final (which also holds schema.dtd for repository.LoadDisk).
	Repo *repository.Repository
	// Schema is the mined majority schema.
	Schema *schema.Schema
	// DTD is the DTD derived from the merged schema statistics.
	DTD *dtd.DTD
	// Quarantined aggregates the per-document failure records across all
	// shards, sorted by document source.
	Quarantined []FailureRecord
	// Degraded lists documents converted or mapped in degraded mode,
	// aggregated across shards and sorted by document source.
	Degraded []FailureRecord
	// TotalInput is the number of source documents given to the build.
	TotalInput int
	// TotalMapCost sums the edit operations conformance mapping spent.
	TotalMapCost int
	// Conforming counts the stored documents whose mapping cost was 0:
	// they conformed to the DTD before mapping.
	Conforming int
	// BytesOnDisk is the final store's disk footprint (segment + index).
	BytesOnDisk int64
}

// shardDir names shard i's working directory under the build directory.
func shardDir(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d", shard))
}

// shardRange splits n sources into the given number of contiguous ranges
// and returns the i-th as a half-open interval. Contiguity is what lets
// the merge step concatenate shard segments and preserve global order.
func shardRange(n, shards, i int) (start, end int) {
	base, rem := n/shards, n%shards
	start = i*base + min(i, rem)
	end = start + base
	if i < rem {
		end++
	}
	return start, end
}

// BuildShardedFrom runs the complete pipeline over n sources as a
// sharded, disk-backed, crash-resumable build (see the package comment
// above for the dataflow). The result's repository, DTD, and conformed
// documents are byte-identical to Build + Export over the same sources.
//
// Sources are produced lazily: at(i) is called once per source, by the
// shard that owns index i, just before conversion — so a corpus read from
// disk or generated on the fly is never resident as a whole, keeping RSS
// flat at million-document scale. at must be deterministic (a resumed
// build calls it again for re-processed indices) and safe for concurrent
// calls with distinct i.
//
// The build directory opts.Dir persists between calls: a build that failed
// or was killed mid-convert resumes from each shard's last checkpoint; a
// completed build re-run over the same directory skips all conversion work
// and re-derives the same output.
func (p *Pipeline) BuildShardedFrom(ctx context.Context, n int, at func(i int) (Source, error), opts ShardOptions) (*ShardResult, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("core: sharded build needs a working directory")
	}
	if opts.Shards <= 0 {
		opts.Shards = 2
	}
	shards := make([]*shard, min(opts.Shards, n))
	for i := range shards {
		start, end := shardRange(n, len(shards), i)
		shards[i] = &shard{id: i, start: start, end: end, dir: shardDir(opts.Dir, i), next: rangeFeed(i, start, end, at)}
	}
	repo, err := p.run(ctx, &build{shards: shards, workers: 1, limit: 1, every: opts.CheckpointEvery, disk: true, kill: opts.kill})
	if err != nil {
		return nil, err
	}
	res := &ShardResult{Schema: repo.Schema, DTD: repo.DTD, Quarantined: repo.Quarantined,
		Degraded: repo.Degraded, TotalInput: repo.TotalInput}
	for _, s := range shards {
		res.TotalMapCost += s.cost
		res.Conforming += s.conforming
	}

	// Concatenate the conformed segments, in shard order, into the final
	// disk-backed repository. Contiguous shard ranges make this a pure
	// concatenation — global input order is preserved without any
	// reordering step.
	finalDir := filepath.Join(opts.Dir, "final")
	storeOpts := opts.Store
	if storeOpts.Tracer == nil {
		storeOpts.Tracer = p.tr
	}
	final, err := repository.CreateDiskStore(finalDir, storeOpts)
	if err != nil {
		return nil, err
	}
	for _, s := range shards {
		if err == nil {
			err = appendSegment(final, filepath.Join(s.dir, "conf"))
		}
	}
	if err == nil {
		err = final.Flush()
	}
	if err == nil {
		err = repository.SaveDTDFile(finalDir, res.DTD)
	}
	if err != nil {
		final.Close()
		return nil, err
	}
	res.BytesOnDisk = final.BytesOnDisk()
	res.Repo = repository.NewWithStore(res.DTD, final)
	if p.tr.Enabled() {
		p.tr.Set(obs.GaugeStreamShards, int64(len(shards)))
	}
	return res, nil
}

// appendSegment copies every document of the disk store in dir to final,
// reading the segment in runs.
func appendSegment(final *repository.DiskStore, dir string) error {
	seg, err := repository.OpenDiskStore(dir, repository.DiskOptions{MaxResidentDocs: -1})
	if err != nil {
		return err
	}
	defer seg.Close()
	return seg.EachXML(func(j int, xml []byte) error {
		return final.AppendXML(seg.Name(j), xml)
	})
}
