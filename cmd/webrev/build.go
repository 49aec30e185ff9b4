package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"webrev/internal/core"
	"webrev/internal/corpus"
	"webrev/internal/obs"
	"webrev/internal/repository"
)

// cmdBuild runs the full pipeline — convert, discover, derive, conform —
// as a sharded, disk-backed build (core.Pipeline.BuildShardedFrom) into
// the working directory -dir: shard-NNN/ holds each shard's checkpoint and
// segments, final/ the repository. A rerun over the same directory resumes
// from the shards' checkpoints. Without -dir the working directory is
// temporary and removed on exit, so -out is where the repository stays.
//
// Sources are the file arguments, the .html files of -corpus DIR (sorted
// by name), or -n resumes generated from -seed. Either way each one is
// read or generated lazily by the shard that owns it, so the corpus is
// never resident and peak RSS stays flat in corpus size. The command
// reports wall time, peak RSS and bytes on disk, and -bench-out records
// them as ShardBuild/... rows in a BENCH_shard.json.
//
// With -verify the same sources also go through the single-process
// in-memory build, and the two repositories must match byte for byte —
// the CI scale-smoke gate's identity check.
func cmdBuild(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	corpusDir := fs.String("corpus", "", "build the .html files of this directory (sorted by name)")
	n := fs.Int("n", 0, "build this many generated resumes")
	seed := fs.Int64("seed", 1, "generator seed for -n")
	shards := fs.Int("shards", runtime.GOMAXPROCS(0), "independent shard workers")
	dir := fs.String("dir", "", "working directory for shard checkpoints and the repository in DIR/final (default: a temporary directory removed on exit)")
	out := fs.String("out", "", "copy the repository to this directory")
	root := fs.String("root", "resume", "root element name")
	sup := fs.Float64("sup", 0.5, "support threshold")
	ratio := fs.Float64("ratio", 0.1, "support-ratio threshold")
	verify := fs.Bool("verify", false, "also run the single-process in-memory build and require byte-identical output")
	benchOut := fs.String("bench-out", "", "write ShardBuild/... rows (wall, rss_kb, disk_bytes) to this BENCH_shard.json, merging with existing rows")
	metricsOut, pprofAddr := obsFlags(fs)
	fs.Parse(args)

	if *shards < 1 {
		return fmt.Errorf("%s: -shards must be at least 1", buildUsage)
	}
	total, at, err := buildSources(fs.Args(), *corpusDir, *n, *seed)
	if err != nil {
		return err
	}
	work := *dir
	if work == "" {
		if work, err = os.MkdirTemp("", "webrev-build-"); err != nil {
			return err
		}
		defer os.RemoveAll(work)
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
	res, err := p.BuildShardedFrom(context.Background(), total, at, core.ShardOptions{Shards: *shards, Dir: work})
	if err != nil {
		return err
	}
	defer res.Repo.Store().Close() // error paths; success checks Close below
	wall := time.Since(startT)
	rssKB := peakRSSKB()
	stored := res.Repo.Len()
	fmt.Fprintf(w, "built %d of %d documents in %d shards (%d quarantined, %d degraded); schema %d paths; DTD %d elements\n",
		stored, total, min(*shards, total), len(res.Quarantined), len(res.Degraded), len(res.Schema.Paths()), res.DTD.Len())
	fmt.Fprintf(w, "wall %.2fs, peak RSS %d KB, %d bytes on disk\n", wall.Seconds(), rssKB, res.BytesOnDisk)
	if tr != nil {
		fmt.Fprint(w, coll.Snapshot().Summary())
	}
	fmt.Fprintf(w, "pre-mapping conformance %.1f%%, total mapping cost %d edits\n",
		100*float64(res.Conforming)/float64(max(stored, 1)), res.TotalMapCost)
	fmt.Fprint(w, res.DTD.Render())
	if *dir != "" {
		fmt.Fprintf(w, "repository: %s (open with webrev query -repo or webrevd -repo)\n", filepath.Join(work, "final"))
	}

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
	if *out != "" {
		if err := res.Repo.Save(*out); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d XML documents and schema.dtd to %s\n", stored, *out)
	}
	if *verify {
		if err := verifyBuild(p, total, at, res.Repo, w); err != nil {
			return err
		}
	}
	if err := res.Repo.Store().Close(); err != nil {
		return err
	}
	return finish()
}

const buildUsage = "usage: webrev build [flags] (file.html... | -corpus DIR | -n N [-seed S])"

// buildSources resolves build's lazy source provider from exactly one of:
// the file arguments, in the order given; the .html files of corpusDir,
// sorted by name; or n synthetic resumes. Synthetic resumes are seeded per
// index (rather than by one sequential generator), which lets any shard
// produce exactly its own range without generating everyone else's
// prefix.
func buildSources(files []string, corpusDir string, n int, seed int64) (int, func(int) (core.Source, error), error) {
	set := 0
	for _, on := range []bool{len(files) > 0, corpusDir != "", n > 0} {
		if on {
			set++
		}
	}
	if set != 1 {
		return 0, nil, errors.New(buildUsage)
	}
	if corpusDir != "" {
		var err error
		if files, err = filepath.Glob(filepath.Join(corpusDir, "*.html")); err != nil {
			return 0, nil, err
		}
		if len(files) == 0 {
			return 0, nil, fmt.Errorf("no .html files in %s", corpusDir)
		}
		sort.Strings(files)
	}
	if len(files) > 0 {
		return len(files), func(i int) (core.Source, error) {
			b, err := os.ReadFile(files[i])
			if err != nil {
				return core.Source{}, err
			}
			return core.Source{Name: files[i], HTML: string(b)}, nil
		}, nil
	}
	return n, func(i int) (core.Source, error) {
		g := corpus.New(corpus.Options{Seed: seed + int64(i)*1000003})
		return core.Source{Name: fmt.Sprintf("gen-%07d", i), HTML: g.Resume().HTML}, nil
	}, nil
}

// verifyBuild runs the single-process in-memory build over the same
// sources and requires the sharded repository to match it byte for byte:
// same DTD, same document names, same canonical XML. This materializes the
// whole corpus, so it is meant for smoke-scale runs (the 10k CI gate), not
// the million-document sweep.
func verifyBuild(p *core.Pipeline, total int, at func(int) (core.Source, error), sharded *repository.Repository, w io.Writer) error {
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
