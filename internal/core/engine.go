package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"

	"webrev/internal/dom"
	"webrev/internal/dtd"
	"webrev/internal/mapping"
	"webrev/internal/obs"
	"webrev/internal/repository"
	"webrev/internal/schema"
	"webrev/internal/xmlout"
)

// The build engine. Every build — Build, BuildStream, BuildFromStats and
// BuildSharded alike — runs as one or more shards followed by one shared
// tail. A shard is one ordered run of sources: an index range of a source
// provider, or the input channel. Its convert phase runs the sources
// through the ordered pool (runOrdered): workers convert each document and
// extract its label paths, and the pool commits each result in input order
// — the document's paths fold into the shard accumulator under its global
// corpus index, the document is appended to the shard's store, any
// failure is recorded, and a shard with a directory checkpoints every
// CheckpointEvery documents. The store is in memory, or the conv/ disk
// segment that the shard's state.json checkpoints.
//
// The tail merges the shard accumulators (obs.StageMerge), mines the
// majority schema, derives the DTD, and runs one map phase per shard
// through the same pool, emitting in order into the Repository slices (and
// the stream sink) or into the shard's conf/ segment. The accumulator
// merge is exactly commutative and contiguous shards keep global order, so
// every shard split produces byte-identical output.

// errShardKilled reports that the crash-injection hook stopped a shard
// mid-build; the shard's durable state is at its last checkpoint and a new
// BuildSharded over the same directory resumes it.
var errShardKilled = errors.New("core: shard killed")

// defaultCheckpointEvery is the number of documents a shard commits
// between checkpoints when the configured interval is unset. A checkpoint
// re-encodes the whole shard accumulator, which grows with the documents
// folded, so the interval trades resume granularity for checkpoint cost.
const defaultCheckpointEvery = 256

// shardStateVersion guards the shard checkpoint format.
const shardStateVersion = 1

// shardStateFile is the per-shard checkpoint manifest name.
const shardStateFile = "state.json"

// shardState is a shard's durable checkpoint: where its range stands and
// the accumulator fold so far. The converted XML lives beside it in the
// conv/ disk segment; Stored is the authoritative segment length (a
// resumed shard truncates the segment back to it, discarding any appends
// after the last checkpoint).
type shardState struct {
	Version int `json:"version"`
	// Start and End delimit the shard's half-open source range; End is -1
	// for an open-ended range (a streaming build's channel). A resume
	// against a different range starts the shard fresh.
	Start int `json:"start"`
	End   int `json:"end"`
	// Done counts sources processed (from Start); Stored counts documents
	// appended to the conv segment (Done minus quarantined).
	Done   int `json:"done"`
	Stored int `json:"stored"`
	// Acc is the shard accumulator's JSON encoding (schema.Accumulator).
	Acc json.RawMessage `json:"acc"`
	// Quarantined and Degraded carry the shard's failure records so a
	// resumed build still reports them.
	Quarantined []FailureRecord `json:"quarantined,omitempty"`
	Degraded    []FailureRecord `json:"degraded,omitempty"`
}

// shard is one ordered run of sources and everything the engine keeps for
// it between phases.
type shard struct {
	id         int
	start, end int // global source range; end is -1 for a channel
	// next returns the shard's i-th source (i counts from start); ok false
	// ends the shard. Nil marks a seeded shard with no convert phase.
	next func(ctx context.Context, i int) (src Source, ok bool, err error)
	// after, when set, runs after every convert-phase commit.
	after func()
	// dir, when set, holds state.json and the conv/ and conf/ segments;
	// empty keeps the store in memory.
	dir string

	// st doubles as the shard's failure log: map-phase records join it
	// after the last checkpoint, so only convert-phase records persist.
	st       shardState
	storeErr error // first quarantine-store write failure
	acc      *schema.Accumulator
	docs     []*Document           // in-memory store
	conv     *repository.DiskStore // disk store (dir set)

	// Map-phase output: the Repository slices, or the conf/ segment.
	out              []*Document
	conformed        []*dom.Node
	stats            []mapping.EditStats
	cost, conforming int // edits spent, documents needing none
}

// build is one run of the engine.
type build struct {
	shards  []*shard
	workers int // ordered-pool workers per shard
	limit   int // documents in flight per shard
	every   int // documents between checkpoints (0: default)
	// disk maps every shard into its conf/ segment, dropping degraded
	// documents the DTD rejects (the Export rule), instead of into the
	// Repository slices.
	disk bool
	// emit, when set, receives each mapped document in order.
	emit  func(d *Document, conformed *dom.Node, st mapping.EditStats)
	kill  func(shard, done int) bool // ShardOptions' crash-injection hook
	store *QuarantineStore           // Config.QuarantineDir, when set
}

// rangeFeed is the next function of a shard over the global range
// [start, end) of the source provider at.
func rangeFeed(id, start, end int, at func(int) (Source, error)) func(context.Context, int) (Source, bool, error) {
	return func(_ context.Context, i int) (Source, bool, error) {
		if start+i >= end {
			return Source{}, false, nil
		}
		src, err := at(start + i)
		if err != nil {
			return src, false, fmt.Errorf("core: shard %d source %d: %w", id, start+i, err)
		}
		return src, true, nil
	}
}

// workers resolves Config.Parallelism.
func (p *Pipeline) workers() int {
	if p.cfg.Parallelism > 0 {
		return p.cfg.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// memBuild is a build of the given in-memory shard with Config.Parallelism
// workers.
func (p *Pipeline) memBuild(s *shard) *build {
	w := p.workers()
	return &build{shards: []*shard{s}, workers: w, limit: 4 * w}
}

// run executes b: convert every shard, then the shared tail. On an error
// budget failure the partial Repository comes back with the error.
func (p *Pipeline) run(ctx context.Context, b *build) (*Repository, error) {
	if p.cfg.QuarantineDir != "" {
		var err error
		if b.store, err = OpenQuarantineStore(p.cfg.QuarantineDir); err != nil {
			return nil, err
		}
	}
	defer func() {
		for _, s := range b.shards {
			if s.conv != nil {
				s.conv.Close()
			}
		}
	}()
	if err := eachShard(b.shards, func(s *shard) error { return p.convertShard(ctx, b, s) }); err != nil {
		return nil, err
	}
	repo := &Repository{}
	stored := 0
	for _, s := range b.shards {
		repo.TotalInput += s.st.Done
		stored += s.st.Stored
	}
	if repo.TotalInput == 0 {
		return nil, fmt.Errorf("core: empty corpus")
	}
	if err := p.settle(b, repo); err != nil {
		return repo, err
	}
	if stored == 0 {
		return repo, fmt.Errorf("core: all %d documents quarantined", repo.TotalInput)
	}

	sp := p.tr.StartSpan(obs.StageMerge)
	merged := b.shards[0].acc
	for _, s := range b.shards[1:] {
		if err := merged.Merge(s.acc); err != nil {
			sp.End()
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	sp.End()
	repo.Schema = p.MineStats(merged)
	repo.DTD = p.DeriveDTD(repo.Schema)

	if err := eachShard(b.shards, func(s *shard) error { return p.mapShard(ctx, b, s, repo.DTD) }); err != nil {
		return nil, err
	}
	for _, s := range b.shards {
		repo.Docs = append(repo.Docs, s.out...)
		repo.Conformed = append(repo.Conformed, s.conformed...)
		repo.MapStats = append(repo.MapStats, s.stats...)
	}
	if err := p.settle(b, repo); err != nil {
		return repo, err
	}
	repo.Stages = obs.StagesOf(p.tr)
	return repo, nil
}

// eachShard runs fn over every shard concurrently and returns the first
// error in shard order. Shards share nothing but the quarantine store, so
// one failing (or being killed by the test hook) never corrupts another.
func eachShard(shards []*shard, fn func(*shard) error) error {
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, s := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(s)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// result is one document's convert or map outcome on its way to the
// commit.
type result struct {
	doc              *Document
	out              *dom.Node         // map phase: the conformed tree
	st               mapping.EditStats // map phase: the edits it took
	degraded, failed *FailureRecord
	html             string // convert phase: the raw source, kept only to quarantine it
}

// record files r's failure record on s — persisting a quarantined
// document's original to the quarantine store, when one is configured —
// and reports whether the document survived the fault boundary.
func (b *build) record(s *shard, r result) bool {
	if r.failed != nil {
		s.st.Quarantined = append(s.st.Quarantined, *r.failed)
		if b.store != nil && s.storeErr == nil {
			s.storeErr = b.store.Put(*r.failed, r.html)
		}
		return false
	}
	if r.degraded != nil {
		s.st.Degraded = append(s.st.Degraded, *r.degraded)
	}
	return true
}

// settle gathers the shards' failure records onto repo, sorted by document
// source, and enforces the error budget (Config.MaxFailureRatio). A
// quarantine-store write failure fails the build too: the failure path
// must itself not fail silently.
func (p *Pipeline) settle(b *build, repo *Repository) error {
	repo.Quarantined, repo.Degraded = nil, nil
	for _, s := range b.shards {
		if s.storeErr != nil {
			return s.storeErr
		}
		repo.Quarantined = append(repo.Quarantined, s.st.Quarantined...)
		repo.Degraded = append(repo.Degraded, s.st.Degraded...)
	}
	for _, recs := range [][]FailureRecord{repo.Quarantined, repo.Degraded} {
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].URL < recs[j].URL })
	}
	budget := p.cfg.MaxFailureRatio
	switch {
	case budget < 0:
		budget = 0
	case budget == 0:
		budget = 0.5
	}
	if repo.FailureRatio() > budget {
		return fmt.Errorf("core: %d of %d documents quarantined (ratio %.2f exceeds budget %.2f)",
			len(repo.Quarantined), repo.TotalInput, repo.FailureRatio(), budget)
	}
	return nil
}

// span times one shard's phase under its per-shard stage name in sharded
// (disk-output) builds; other builds record no per-shard stages.
func (p *Pipeline) span(b *build, phase string, s *shard) obs.Span {
	if !b.disk {
		return obs.Nop().StartSpan(phase)
	}
	return p.tr.StartSpan(obs.ShardStage(phase, s.id))
}

// convertShard is a shard's convert phase (see the engine comment above).
// A shard with a directory resumes from its checkpoint and writes a final
// one when its input ends or ctx is cancelled.
func (p *Pipeline) convertShard(ctx context.Context, b *build, s *shard) error {
	if s.next == nil {
		return nil
	}
	sp := p.span(b, obs.StageShardConvert, s)
	defer sp.End()
	if err := p.openShard(s); err != nil {
		return err
	}
	every := b.every
	if every <= 0 {
		every = defaultCheckpointEvery
	}
	pos, since := s.st.Done, 0
	pull := func(ctx context.Context) (Source, bool, error) {
		pos++
		return s.next(ctx, pos-1)
	}
	work := func(src Source) result {
		d, degraded, failed := p.convertGuarded(src.Name, src.HTML)
		if failed != nil {
			return result{failed: failed, html: src.HTML}
		}
		p.ExtractPaths(d)
		return result{doc: d, degraded: degraded}
	}
	commit := func(r result) error {
		if s.after != nil {
			defer s.after()
		}
		if b.record(s, r) {
			s.acc.Add(s.start+s.st.Done, r.doc.Paths)
			if s.conv == nil {
				s.docs = append(s.docs, r.doc)
			} else if err := s.conv.Append(r.doc.Source, r.doc.XML); err != nil {
				return fmt.Errorf("core: shard %d: %w", s.id, err)
			}
			s.st.Stored++
		}
		s.st.Done++
		if b.kill != nil && b.kill(s.id, s.st.Done) {
			// Simulated crash: stop with whatever the last checkpoint
			// persisted.
			return fmt.Errorf("core: shard %d: %w", s.id, errShardKilled)
		}
		if since++; s.dir != "" && since >= every {
			since = 0
			return p.checkpoint(s)
		}
		return nil
	}
	err := runOrdered(ctx, b.workers, b.limit, pull, work, commit)
	if err != nil && ctx.Err() == nil {
		return err
	}
	if s.dir != "" {
		// Everything pulled has committed, so this covers the complete
		// prefix and a resumed build restarts exactly after it.
		if cerr := p.checkpoint(s); cerr != nil {
			return cerr
		}
	}
	if err != nil {
		return fmt.Errorf("core: build cancelled: %w", err)
	}
	return nil
}

// openShard prepares s's accumulator and store. A shard with a directory
// resumes from its checkpoint when one exists for the same range:
// the conv segment is truncated back to the checkpoint's watermark and its
// failure records carry over. A checkpoint for a different range
// starts the shard fresh; an unreadable or unknown-version one is an
// error.
func (p *Pipeline) openShard(s *shard) error {
	s.acc = schema.NewAccumulator(0)
	s.st = shardState{Version: shardStateVersion, Start: s.start, End: s.end}
	if s.dir == "" {
		return nil
	}
	convDir := filepath.Join(s.dir, "conv")
	opts := repository.DiskOptions{MaxResidentDocs: -1, Tracer: p.tr}
	path := filepath.Join(s.dir, shardStateFile)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		s.conv, err = repository.CreateDiskStore(convDir, opts)
		return err
	}
	if err != nil {
		return fmt.Errorf("core: shard checkpoint: %w", err)
	}
	var st shardState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("core: shard checkpoint %s: %w", path, err)
	}
	if st.Version != shardStateVersion {
		return fmt.Errorf("core: shard checkpoint %s: version %d not supported (want %d)", path, st.Version, shardStateVersion)
	}
	if st.Start != s.start || st.End != s.end {
		s.conv, err = repository.CreateDiskStore(convDir, opts)
		return err
	}
	if err := json.Unmarshal(st.Acc, s.acc); err != nil {
		return fmt.Errorf("core: shard checkpoint %s: %w", path, err)
	}
	if s.conv, err = repository.OpenDiskStore(convDir, opts); err != nil {
		return err
	}
	if s.conv.Len() < st.Stored {
		// The checkpoint protocol flushes the segment before the state, so
		// a short segment means tampering, not a crash.
		return fmt.Errorf("core: shard resume: segment holds %d documents, checkpoint expects %d", s.conv.Len(), st.Stored)
	}
	if err := s.conv.TruncateDocs(st.Stored); err != nil {
		return err
	}
	s.st = st
	if p.tr.Enabled() {
		p.tr.Add(obs.CtrShardsResumed, 1)
		p.tr.Add(obs.CtrDocsRestored, int64(st.Stored))
	}
	return nil
}

// checkpoint persists s durably: the conv segment is flushed first, then
// state.json is replaced atomically (tmp + rename).
func (p *Pipeline) checkpoint(s *shard) error {
	sp := p.tr.StartSpan(obs.StageCheckpoint)
	defer sp.End()
	var data []byte
	tmp := filepath.Join(s.dir, shardStateFile+".tmp")
	err := s.conv.Flush()
	if err == nil {
		s.st.Acc, err = json.Marshal(s.acc)
	}
	if err == nil {
		data, err = json.Marshal(&s.st)
	}
	if err == nil {
		err = os.WriteFile(tmp, data, 0o644)
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(s.dir, shardStateFile))
	}
	if err != nil {
		return fmt.Errorf("core: shard %d checkpoint: %w", s.id, err)
	}
	if p.tr.Enabled() {
		p.tr.Add(obs.CtrCheckpoints, 1)
	}
	return nil
}

// mapShard is a shard's map phase: every stored document is conformed to
// dt inside the fault boundary and emitted in order — into the shard's
// output slices (and b.emit), or, for disk builds, into the conf/ segment.
// A map-stage failure quarantines the document.
func (p *Pipeline) mapShard(ctx context.Context, b *build, s *shard, dt *dtd.DTD) error {
	sp := p.span(b, obs.StageShardMap, s)
	defer sp.End()
	var conf *repository.DiskStore
	if b.disk {
		var err error
		conf, err = repository.CreateDiskStore(filepath.Join(s.dir, "conf"), repository.DiskOptions{MaxResidentDocs: -1, Tracer: p.tr})
		if err != nil {
			return err
		}
	}
	i := 0
	pull := func(context.Context) (*Document, bool, error) {
		if i == s.st.Stored {
			return nil, false, nil
		}
		i++
		if s.conv == nil {
			return s.docs[i-1], true, nil
		}
		root, err := s.conv.Doc(i - 1)
		if err != nil {
			return nil, false, fmt.Errorf("core: shard %d map: %w", s.id, err)
		}
		return &Document{Source: s.conv.Name(i - 1), XML: root}, true, nil
	}
	work := func(d *Document) result {
		out, st, degraded, failed := p.conformGuarded(d, dt)
		return result{doc: d, out: out, st: st, degraded: degraded, failed: failed}
	}
	commit := func(m result) error {
		if !b.record(s, m) {
			return nil
		}
		if m.degraded != nil && b.disk && len(dt.Validate(m.out)) > 0 {
			// Identity-mapped over the cost ceiling and still
			// non-conforming: dropped, as in Repository.Export.
			return nil
		}
		s.cost += m.st.Cost()
		if m.st.Cost() == 0 {
			s.conforming++
		}
		if b.disk {
			xml := xmlout.Marshal(m.out)
			p.tr.Add(obs.CtrBytesOut, int64(len(xml)))
			return conf.AppendXML(m.doc.Source, []byte(xml))
		}
		if p.tr.Enabled() {
			p.tr.Add(obs.CtrBytesOut, int64(len(xmlout.Marshal(m.out))))
		}
		s.out = append(s.out, m.doc)
		s.conformed = append(s.conformed, m.out)
		s.stats = append(s.stats, m.st)
		if b.emit != nil {
			b.emit(m.doc, m.out, m.st)
		}
		return nil
	}
	err := runOrdered(ctx, b.workers, b.limit, pull, work, commit)
	if conf != nil {
		// Close flushes the segment's index.
		if cerr := conf.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil && ctx.Err() != nil {
		return fmt.Errorf("core: build cancelled: %w", err)
	}
	return err
}
