package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"webrev/internal/concept"
	"webrev/internal/convert"
	"webrev/internal/core"
	"webrev/internal/corpus"
	"webrev/internal/dtd"
	"webrev/internal/htmlparse"
	"webrev/internal/mapping"
	"webrev/internal/obs"
	"webrev/internal/repository"
	"webrev/internal/schema"
	"webrev/internal/serve"
	"webrev/internal/tidy"
	"webrev/internal/xmlout"
)

// The build workload: a synthetic resume corpus, written to files during
// set-up, goes through the sharded disk-backed build with sources read
// lazily from those files — the path a million-document build takes.
const (
	buildDocs       = 3000 // corpus size of a build run
	buildShards     = 2
	buildCheckpoint = 256 // documents a shard processes between checkpoints
	buildResident   = 64  // decoded-document LRU bound of the final store
	buildMinRepeats = 3   // builds per untraced run, however short --seconds is
	// buildTailQ is the percentile of the per-document step that tail_ms
	// reports. Past about p95 the steps are those a garbage collection or
	// the other shard's goroutine interrupted, so a p99 measures the host's
	// scheduling more than the build.
	buildTailQ = 0.9
)

type buildBench struct {
	docs  int
	dir   string
	cons  *concept.Constraints
	pipe  *core.Pipeline
	files []string
	names []string
	// ref is the digest of Pipeline.BuildRepository over the same sources,
	// the output every sharded build and every traced replay must match.
	ref string
}

func newBuildBench() *buildBench { return &buildBench{docs: buildDocs} }

// resumePipeline is the paper's resume-domain pipeline at the default
// thresholds; parallelism 0 means GOMAXPROCS.
func resumePipeline(cons *concept.Constraints, parallelism int) (*core.Pipeline, error) {
	return core.New(core.Config{
		Concepts:    concept.ResumeConcepts(),
		Constraints: cons,
		RootName:    "resume",
		Parallelism: parallelism,
	})
}

// resumeHTML is document i of the corpus seeded by seed. Seeding each
// document on its own lets parallel generators produce any range.
func resumeHTML(seed int64, i int) string {
	return corpus.New(corpus.Options{Seed: seed*1_000_003 + int64(i)}).Resume().HTML
}

// generate produces n seeded documents on two goroutines.
func generate(seed int64, n int) []string {
	out := make([]string, n)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 2 {
				out[i] = resumeHTML(seed, i)
			}
		}(w)
	}
	wg.Wait()
	return out
}

func (b *buildBench) setup(dir string, seed int64) (string, error) {
	b.dir = dir
	corpusDir := filepath.Join(dir, "corpus")
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	if err := os.MkdirAll(corpusDir, 0o755); err != nil {
		return "", err
	}
	b.cons = concept.ResumeConstraints()
	p, err := resumePipeline(b.cons, 0)
	if err != nil {
		return "", err
	}
	b.pipe = p
	htmls := generate(seed, b.docs)
	sources := make([]core.Source, b.docs)
	b.files = make([]string, b.docs)
	b.names = make([]string, b.docs)
	for i, html := range htmls {
		b.names[i] = fmt.Sprintf("doc-%06d.html", i)
		b.files[i] = filepath.Join(corpusDir, b.names[i])
		if err := os.WriteFile(b.files[i], []byte(html), 0o644); err != nil {
			return "", err
		}
		sources[i] = core.Source{Name: b.names[i], HTML: html}
	}
	repo, err := p.BuildRepository(sources)
	if err != nil {
		return "", fmt.Errorf("reference build: %w", err)
	}
	b.ref, err = digest(repo)
	return b.ref, err
}

// shardOptions are the sharded build's settings, shared by the untraced
// build and the traced replay.
func (b *buildBench) shardOptions(dir string) core.ShardOptions {
	return core.ShardOptions{
		Shards:          buildShards,
		Dir:             dir,
		CheckpointEvery: buildCheckpoint,
		Store:           repository.DiskOptions{MaxResidentDocs: buildResident},
	}
}

// shardStart is where shard s's contiguous range begins, the split
// core.BuildShardedFrom makes.
func shardStart(n, shards, s int) int {
	base, rem := n/shards, n%shards
	return s*base + min(s, rem)
}

func (b *buildBench) measure(r *report, seconds float64) error {
	n := b.docs
	second := shardStart(n, buildShards, 1)
	var rs repeats
	var opens []float64
	bytesPerDoc := -1.0
	start := time.Now()
	for runs := 0; runs < buildMinRepeats || time.Since(start).Seconds() < seconds; runs++ {
		out := filepath.Join(b.dir, "out")
		if err := os.RemoveAll(out); err != nil {
			return err
		}
		// A shard asks for its next source right after finishing the
		// previous one, so the gap between two source reads of one shard is
		// that document's convert-phase step: convert, fold, append, and
		// the checkpoint when one falls due.
		epoch := time.Now()
		left := make([]time.Duration, n)
		step := make([]time.Duration, n)
		at := func(i int) (core.Source, error) {
			enter := time.Since(epoch)
			if i != 0 && i != second {
				step[i] = enter - left[i-1]
			}
			raw, err := os.ReadFile(b.files[i])
			left[i] = time.Since(epoch)
			return core.Source{Name: b.names[i], HTML: string(raw)}, err
		}
		t := time.Now()
		res, err := b.pipe.BuildShardedFrom(context.Background(), n, at, b.shardOptions(out))
		wall := time.Since(t)
		if err != nil {
			return fmt.Errorf("sharded build: %w", err)
		}
		r.ops(int64(n), int64(len(res.Quarantined)))
		var steps []float64
		for i, d := range step {
			if i != 0 && i != second {
				steps = append(steps, ms(d))
			}
		}
		rs.add(steps, float64(n)/wall.Seconds())
		got, err := digest(res.Repo)
		if err != nil {
			return err
		}
		if got != b.ref {
			r.wrongf("sharded build digest %s differs from BuildRepository digest %s", got, b.ref)
		}
		bpd := float64(res.BytesOnDisk) / float64(res.Repo.Len())
		if bytesPerDoc >= 0 && bpd != bytesPerDoc {
			r.wrongf("bytes_per_doc changed between builds of one corpus: %v then %v", bytesPerDoc, bpd)
		}
		bytesPerDoc = bpd
		if err := res.Repo.Store().Close(); err != nil {
			return err
		}
		open, err := timeOpen(filepath.Join(out, "final"), repository.DiskOptions{MaxResidentDocs: buildResident})
		if err != nil {
			return err
		}
		opens = append(opens, open.Seconds())
	}
	if err := rs.report(r, buildTailQ); err != nil {
		return err
	}
	r.set("open_s", median(opens), "s", len(opens))
	r.set("bytes_per_doc", bytesPerDoc, "B", 1)
	return nil
}

// firstQuery is the request that proves a freshly opened repository
// answers.
const firstQuery = "/api/count?q=/resume"

// timeOpen measures what a restarted daemon pays before it answers: open
// the disk repository, build the serving snapshot, answer one query.
func timeOpen(dir string, opts repository.DiskOptions) (time.Duration, error) {
	t := time.Now()
	repo, err := repository.LoadDisk(dir, opts)
	if err != nil {
		return 0, err
	}
	defer repo.Store().Close()
	srv := serve.NewServer(repo, serve.Options{})
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", firstQuery, nil))
	d := time.Since(t)
	if rec.Code != 200 {
		return 0, fmt.Errorf("first query on %s answered %d: %s", dir, rec.Code, rec.Body)
	}
	return d, nil
}

// replayCounts are the deterministic outputs of one traced replay.
type replayCounts struct {
	digest      string
	checkpoints int
	ckptBytes   int64
	edits       int
	tokens      int
	identified  int
	stored      int
	deduped     int64
}

// shardState mirrors the sharded build's per-shard checkpoint manifest, so
// the replay writes the same bytes a checkpoint does.
type shardState struct {
	Version int             `json:"version"`
	Start   int             `json:"start"`
	End     int             `json:"end"`
	Done    int             `json:"done"`
	Stored  int             `json:"stored"`
	Acc     json.RawMessage `json:"acc"`
}

// shardPass is one shard worker's convert or map phase in the replay.
type shardPass struct {
	tl      *layers
	elapsed time.Duration
	acc     []byte
	counts  replayCounts
	err     error
}

// replay runs the sharded build step by step through the public calls the
// build makes, timing each: the build's phases and shard split, with every
// call inside a layer span. It returns the spans, the summed timeline (each
// shard worker's elapsed time plus the serial phases), and the counts.
func (b *buildBench) replay(dir string) (*layers, time.Duration, *replayCounts, error) {
	conv := convert.New(b.pipe.Set(), convert.Options{RootName: "resume", Constraints: b.cons})
	all := newLayers()
	var timeline time.Duration
	counts := &replayCounts{}

	// Phase 1: convert, one goroutine per shard.
	shards := make([]shardPass, buildShards)
	var wg sync.WaitGroup
	for s := range shards {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			shards[s] = b.replayConvert(conv, dir, s)
		}(s)
	}
	wg.Wait()
	for _, sh := range shards {
		if sh.err != nil {
			return nil, 0, nil, sh.err
		}
		all.merge(sh.tl)
		timeline += sh.elapsed
		counts.checkpoints += sh.counts.checkpoints
		counts.ckptBytes += sh.counts.ckptBytes
		counts.tokens += sh.counts.tokens
		counts.identified += sh.counts.identified
		counts.stored += sh.counts.stored
	}

	// Phase 2: merge the shard accumulators as checkpointed, mine, derive.
	t0 := time.Now()
	t := t0
	merged := schema.NewAccumulator(0)
	for _, sh := range shards {
		acc := &schema.Accumulator{}
		if err := json.Unmarshal(sh.acc, acc); err != nil {
			return nil, 0, nil, err
		}
		if err := merged.Merge(acc); err != nil {
			return nil, 0, nil, err
		}
	}
	t = all.lap("schema.merge", t)
	sch := b.pipe.MineStats(merged)
	t = all.lap("schema.mine", t)
	dt := b.pipe.DeriveDTD(sch)
	all.lap("dtd.derive", t)
	timeline += time.Since(t0)

	// Phase 3: map, one goroutine per shard.
	maps := make([]shardPass, buildShards)
	for s := range maps {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			maps[s] = replayMap(dir, s, dt)
		}(s)
	}
	wg.Wait()
	for _, m := range maps {
		if m.err != nil {
			return nil, 0, nil, m.err
		}
		all.merge(m.tl)
		timeline += m.elapsed
		counts.edits += m.counts.edits
	}

	// Phase 4: concatenate the conformed segments into the final store.
	t0 = time.Now()
	coll := obs.NewCollector()
	finalDir := filepath.Join(dir, "final")
	final, err := repository.CreateDiskStore(finalDir, repository.DiskOptions{MaxResidentDocs: buildResident, Tracer: coll})
	if err != nil {
		return nil, 0, nil, err
	}
	defer final.Close()
	for s := 0; s < buildShards; s++ {
		if err := appendSegment(final, filepath.Join(shardPath(dir, s), "conf")); err != nil {
			return nil, 0, nil, err
		}
	}
	if err := final.Flush(); err != nil {
		return nil, 0, nil, err
	}
	if err := repository.SaveDTDFile(finalDir, dt); err != nil {
		return nil, 0, nil, err
	}
	all.lap("repository.concat", t0)
	timeline += time.Since(t0)

	counts.deduped = coll.Counter(obs.CtrStoreDeduped)
	counts.digest, err = digest(repository.NewWithStore(dt, final))
	return all, timeline, counts, err
}

func shardPath(dir string, s int) string { return filepath.Join(dir, fmt.Sprintf("shard-%03d", s)) }

// appendSegment copies every document of the disk store in dir to final.
func appendSegment(final *repository.DiskStore, dir string) error {
	seg, err := repository.OpenDiskStore(dir, repository.DiskOptions{MaxResidentDocs: -1})
	if err != nil {
		return err
	}
	defer seg.Close()
	for j := 0; j < seg.Len(); j++ {
		xml, err := seg.XML(j)
		if err != nil {
			return err
		}
		if err := final.AppendXML(seg.Name(j), xml); err != nil {
			return err
		}
	}
	return nil
}

// replayConvert is shard s's convert phase: read, parse, tidy, convert,
// extract, fold, marshal, append, and a checkpoint every buildCheckpoint
// documents and at the end.
func (b *buildBench) replayConvert(conv *convert.Converter, dir string, s int) (out shardPass) {
	t0 := time.Now()
	l := newLayers()
	out.tl = l
	start := shardStart(b.docs, buildShards, s)
	end := shardStart(b.docs, buildShards, s+1)
	sdir := shardPath(dir, s)
	store, err := repository.CreateDiskStore(filepath.Join(sdir, "conv"), repository.DiskOptions{MaxResidentDocs: -1})
	if err != nil {
		out.err = err
		return out
	}
	defer store.Close()
	acc := schema.NewAccumulator(0)
	checkpoint := func(done int) error {
		t := time.Now()
		if err := store.Flush(); err != nil {
			return err
		}
		enc, err := json.Marshal(acc)
		if err != nil {
			return err
		}
		data, err := json.Marshal(shardState{Version: 1, Start: start, End: end, Done: done, Stored: out.counts.stored, Acc: enc})
		if err != nil {
			return err
		}
		tmp := filepath.Join(sdir, "state.json.tmp")
		if err := os.WriteFile(tmp, data, 0o644); err != nil {
			return err
		}
		if err := os.Rename(tmp, filepath.Join(sdir, "state.json")); err != nil {
			return err
		}
		l.lap("checkpoint", t)
		out.acc = enc
		out.counts.checkpoints++
		out.counts.ckptBytes += int64(len(enc))
		return nil
	}
	since := 0
	for i := start; i < end; i++ {
		t := time.Now()
		raw, err := os.ReadFile(b.files[i])
		if err != nil {
			out.err = err
			return out
		}
		html := string(raw)
		t = l.lap("source.read", t)
		doc, _ := htmlparse.ParseLimited(html, htmlparse.Limits{})
		t = l.lap("htmlparse.parse", t)
		tidy.Clean(doc)
		t = l.lap("tidy.clean", t)
		body := doc.FindElement("body")
		if body == nil {
			body = doc
		}
		root, st := conv.ConvertTree(body)
		t = l.lap("convert.tree", t)
		paths := schema.Extract(root)
		t = l.lap("schema.extract", t)
		acc.Add(i, paths)
		t = l.lap("schema.fold", t)
		xml := xmlout.Marshal(root)
		t = l.lap("xmlout.marshal", t)
		if err := store.AppendXML(b.names[i], []byte(xml)); err != nil {
			out.err = err
			return out
		}
		l.lap("repository.append", t)
		out.counts.stored++
		out.counts.tokens += st.Tokens
		out.counts.identified += st.IdentifiedTokens
		if since++; since >= buildCheckpoint {
			since = 0
			if out.err = checkpoint(i - start + 1); out.err != nil {
				return out
			}
		}
	}
	out.err = checkpoint(end - start)
	out.elapsed = time.Since(t0)
	return out
}

// replayMap is shard s's map phase: read each converted document back,
// conform it to the DTD, marshal and append it to the conformed segment.
func replayMap(dir string, s int, dt *dtd.DTD) (out shardPass) {
	t0 := time.Now()
	l := newLayers()
	out.tl = l
	sdir := shardPath(dir, s)
	conv, err := repository.OpenDiskStore(filepath.Join(sdir, "conv"), repository.DiskOptions{MaxResidentDocs: -1})
	if err != nil {
		out.err = err
		return out
	}
	defer conv.Close()
	conf, err := repository.CreateDiskStore(filepath.Join(sdir, "conf"), repository.DiskOptions{MaxResidentDocs: -1})
	if err != nil {
		out.err = err
		return out
	}
	defer conf.Close()
	for j := 0; j < conv.Len(); j++ {
		t := time.Now()
		root, err := conv.Doc(j)
		if err != nil {
			out.err = err
			return out
		}
		t = l.lap("repository.read", t)
		mapped, est := mapping.Conform(root, dt)
		t = l.lap("mapping.conform", t)
		xml := xmlout.Marshal(mapped)
		t = l.lap("xmlout.marshal", t)
		if err := conf.AppendXML(conv.Name(j), []byte(xml)); err != nil {
			out.err = err
			return out
		}
		l.lap("repository.append", t)
		out.counts.edits += est.Cost()
	}
	t := time.Now()
	if out.err = conf.Flush(); out.err != nil {
		return out
	}
	l.lap("repository.append", t)
	out.elapsed = time.Since(t0)
	return out
}

func (b *buildBench) trace(r *report, seconds float64, primary bool) error {
	total := newLayers()
	var timeline time.Duration
	var first *replayCounts
	replays := 0
	start := time.Now()
	for replays < 2 || (primary && time.Since(start).Seconds() < seconds) {
		dir := filepath.Join(b.dir, fmt.Sprintf("replay-%d", replays))
		l, tl, c, err := b.replay(dir)
		if err != nil {
			return err
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		replays++
		total.merge(l)
		timeline += tl
		r.ops(int64(b.docs), int64(b.docs-c.stored))
		if c.digest != b.ref {
			r.wrongf("traced build replay digest %s differs from BuildRepository digest %s", c.digest, b.ref)
		}
		if first == nil {
			first = c
		} else if *c != *first {
			r.wrongf("build replay counts changed between replays of one corpus: %+v then %+v", *first, *c)
		}
	}
	n := b.docs * replays
	perDoc := func(layer string) float64 { return us(total.busy[layer]) / float64(n) }
	perRun := func(layer string) float64 { return ms(total.busy[layer]) / float64(replays) }
	r.set("source.read_us_per_doc", perDoc("source.read"), "us", n)
	r.set("htmlparse.parse_us_per_doc", perDoc("htmlparse.parse"), "us", n)
	r.set("tidy.clean_us_per_doc", perDoc("tidy.clean"), "us", n)
	r.set("convert.tree_us_per_doc", perDoc("convert.tree"), "us", n)
	r.set("convert.identified_ratio", ratio(float64(first.identified), float64(first.tokens)), "ratio", first.tokens)
	r.set("schema.extract_us_per_doc", perDoc("schema.extract"), "us", n)
	r.set("schema.fold_us_per_doc", perDoc("schema.fold"), "us", n)
	r.set("schema.merge_ms", perRun("schema.merge"), "ms", replays)
	r.set("schema.mine_ms", perRun("schema.mine"), "ms", replays)
	r.set("dtd.derive_ms", perRun("dtd.derive"), "ms", replays)
	r.set("xmlout.marshal_us_per_doc", perDoc("xmlout.marshal"), "us", n)
	r.set("repository.append_us_per_doc", perDoc("repository.append"), "us", n)
	r.set("repository.read_us_per_doc", perDoc("repository.read"), "us", n)
	r.set("repository.concat_ms", perRun("repository.concat"), "ms", replays)
	r.set("repository.dedupe_ratio", ratio(float64(first.deduped), float64(first.stored)), "ratio", first.stored)
	r.set("checkpoint.count", float64(first.checkpoints), "count", replays)
	r.set("checkpoint.ms_total", perRun("checkpoint"), "ms", replays)
	r.set("checkpoint.bytes", float64(first.ckptBytes), "B", replays)
	r.set("mapping.conform_us_per_doc", perDoc("mapping.conform"), "us", n)
	r.set("mapping.edits_per_doc", ratio(float64(first.edits), float64(first.stored)), "count", first.stored)
	if primary {
		r.set("unattributed_ratio", unattributed(timeline, total.covered()), "ratio", replays)
		r.set("trace.overhead_ratio", traceOverhead(total.spans, spanCost(), timeline), "ratio", int(total.spans))
	}
	return nil
}
