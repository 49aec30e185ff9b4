package main

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"webrev/internal/core"
	"webrev/internal/corpus"
	"webrev/internal/obs"
	"webrev/internal/repository"
)

// cmdScale runs a sharded, disk-backed build at scale and reports its
// cost: wall time, peak RSS, and bytes on disk, optionally as
// BENCH_shard.json rows the bench-regression gate compares. Sources come
// from a corpus directory (-corpus, e.g. one cmd/corpusgen wrote) or are
// generated on the fly (-n/-seed) — either way they are produced lazily,
// one document at a time inside the owning shard, so the corpus is never
// resident and RSS stays bounded by -max-resident regardless of -n.
//
// With -verify the same sources also go through the single-process
// in-memory build, and the two repositories are compared byte for byte —
// the CI scale-smoke gate's identity check.
func cmdScale(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("scale", flag.ExitOnError)
	corpusDir := fs.String("corpus", "", "read .html sources from this directory (sorted by name) instead of generating")
	n := fs.Int("n", 10000, "synthetic documents to generate when -corpus is unset")
	seed := fs.Int64("seed", 1, "generator seed for synthetic documents")
	shards := fs.Int("shards", 2, "independent shard workers")
	dir := fs.String("dir", "", "working directory for shard state and the final disk repository (required)")
	maxResident := fs.Int("max-resident", repository.DefaultMaxResidentDocs, "decoded-document LRU bound of the final disk store")
	ckptEvery := fs.Int("checkpoint-every", 256, "documents a shard processes between durable checkpoints")
	root := fs.String("root", "resume", "root element name")
	sup := fs.Float64("sup", 0.5, "support threshold")
	ratio := fs.Float64("ratio", 0.1, "support-ratio threshold")
	verify := fs.Bool("verify", false, "also run the single-process in-memory build and require byte-identical output")
	benchOut := fs.String("bench-out", "", "write ShardBuild/... rows (wall, rss_kb, disk_bytes) to this BENCH_shard.json, merging with existing rows")
	metricsOut, pprofAddr := obsFlags(fs)
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("usage: webrev scale -dir WORK [-corpus DIR | -n N -seed S] [-shards N] [-max-resident N] [-verify] [-bench-out FILE]")
	}

	total, at, err := scaleSources(*corpusDir, *n, *seed)
	if err != nil {
		return err
	}

	coll := obs.NewCollector()
	var tr obs.Tracer
	if *metricsOut != "" || *pprofAddr != "" {
		tr = coll
	}
	p, err := newTracedPipeline(*root, *sup, *ratio, tr)
	if err != nil {
		return err
	}
	finish, err := startObs(coll, *metricsOut, *pprofAddr, w)
	if err != nil {
		return err
	}

	startT := time.Now()
	res, err := p.BuildShardedFrom(context.Background(), total, at, core.ShardOptions{
		Shards:          *shards,
		Dir:             *dir,
		CheckpointEvery: *ckptEvery,
		Store:           repository.DiskOptions{MaxResidentDocs: *maxResident},
	})
	if err != nil {
		return err
	}
	wall := time.Since(startT)
	rssKB := peakRSSKB()
	fmt.Fprintf(w, "sharded build: %d docs, %d shards, %d quarantined, %d degraded\n",
		total, *shards, len(res.Quarantined), len(res.Degraded))
	fmt.Fprintf(w, "wall %.2fs, peak RSS %d KB, %d bytes on disk, DTD %d elements\n",
		wall.Seconds(), rssKB, res.BytesOnDisk, res.DTD.Len())
	fmt.Fprintf(w, "final repository: %s (open with webrev query -repo or webrevd -repo)\n", filepath.Join(*dir, "final"))

	if *benchOut != "" {
		prefix := fmt.Sprintf("ShardBuild/docs=%d/shards=%d", total, *shards)
		rows := map[string]obs.BenchResult{
			prefix + "/wall":       {NsPerOp: float64(wall.Nanoseconds()), Iterations: 1},
			prefix + "/rss_kb":     {NsPerOp: float64(rssKB), Iterations: 1},
			prefix + "/disk_bytes": {NsPerOp: float64(res.BytesOnDisk), Iterations: 1},
		}
		if err := mergeBenchRows(*benchOut, rows); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d bench rows to %s\n", len(rows), *benchOut)
	}

	if *verify {
		if err := verifySharded(p, total, at, res.Repo, w); err != nil {
			return err
		}
	}
	return finish()
}

// scaleSources resolves the lazy source provider: files of a corpus
// directory, or per-index seeded synthetic resumes. Per-index seeding
// (rather than one sequential generator) is what lets any shard produce
// exactly its own range without generating everyone else's prefix.
func scaleSources(corpusDir string, n int, seed int64) (int, func(int) (core.Source, error), error) {
	if corpusDir != "" {
		matches, err := filepath.Glob(filepath.Join(corpusDir, "*.html"))
		if err != nil {
			return 0, nil, err
		}
		if len(matches) == 0 {
			return 0, nil, fmt.Errorf("no .html files in %s", corpusDir)
		}
		sort.Strings(matches)
		return len(matches), func(i int) (core.Source, error) {
			b, err := os.ReadFile(matches[i])
			if err != nil {
				return core.Source{}, err
			}
			return core.Source{Name: matches[i], HTML: string(b)}, nil
		}, nil
	}
	if n <= 0 {
		return 0, nil, fmt.Errorf("-n must be positive")
	}
	return n, func(i int) (core.Source, error) {
		g := corpus.New(corpus.Options{Seed: seed + int64(i)*1000003})
		return core.Source{Name: fmt.Sprintf("gen-%07d", i), HTML: g.Resume().HTML}, nil
	}, nil
}

// verifySharded runs the single-process in-memory build over the same
// sources and requires the sharded repository to match it byte for byte:
// same DTD, same document names, same canonical XML. This materializes the
// whole corpus, so it is meant for smoke-scale runs (the 10k CI gate), not
// the million-document sweep.
func verifySharded(p *core.Pipeline, total int, at func(int) (core.Source, error), sharded *repository.Repository, w io.Writer) error {
	sources := make([]core.Source, total)
	for i := range sources {
		s, err := at(i)
		if err != nil {
			return err
		}
		sources[i] = s
	}
	single, err := p.BuildRepository(sources)
	if err != nil {
		return fmt.Errorf("verify: single-process build: %w", err)
	}
	if got, want := sharded.DTD().Render(), single.DTD().Render(); got != want {
		return fmt.Errorf("verify: sharded DTD differs from single-process DTD")
	}
	if got, want := sharded.Len(), single.Len(); got != want {
		return fmt.Errorf("verify: sharded build stored %d documents, single-process %d", got, want)
	}
	for i := 0; i < single.Len(); i++ {
		if got, want := sharded.Store().Name(i), single.Store().Name(i); got != want {
			return fmt.Errorf("verify: document %d named %q (sharded) vs %q (single)", i, got, want)
		}
		got, err := sharded.Store().XML(i)
		if err != nil {
			return fmt.Errorf("verify: sharded doc %d: %w", i, err)
		}
		want, err := single.Store().XML(i)
		if err != nil {
			return fmt.Errorf("verify: single doc %d: %w", i, err)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("verify: document %d (%s) differs between sharded and single-process build", i, single.Store().Name(i))
		}
	}
	fmt.Fprintf(w, "verify: sharded output byte-identical to single-process build (%d documents)\n", single.Len())
	return nil
}

// mergeBenchRows folds rows into the BENCH file at path, keeping rows
// already there under other names — so the 10k/100k/1M sweeps accumulate
// into one committed file.
func mergeBenchRows(path string, rows map[string]obs.BenchResult) error {
	out := &obs.BenchFile{Benchmarks: map[string]obs.BenchResult{}}
	if prev, err := obs.ReadBenchFile(path); err == nil && prev.Benchmarks != nil {
		out.Benchmarks = prev.Benchmarks
		out.Meta = prev.Meta
	}
	for k, v := range rows {
		out.Benchmarks[k] = v
	}
	if out.Meta == nil {
		out.Meta = obs.CollectMeta(".")
	}
	return out.WriteFile(path)
}

// peakRSSKB reads the process's peak resident set (VmHWM) from
// /proc/self/status; 0 when unavailable (non-Linux).
func peakRSSKB() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb
	}
	return 0
}
