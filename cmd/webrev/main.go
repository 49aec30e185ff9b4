// Command webrev drives the full pipeline from the shell: convert HTML
// files to XML, discover a majority schema, derive a DTD, build the
// conformed repository, and regenerate the paper's experiments.
//
// Usage:
//
//	webrev convert  [-root resume] file.html...        # HTML -> XML on stdout
//	webrev schema   [-sup 0.5] [-ratio 0.1] file.html...
//	webrev dtd      [-sup 0.5] [-ratio 0.1] file.html...
//	webrev build    [-dir WORK] [-out DIR] [-shards N] [-verify] [-bench-out FILE] [-metrics snap.json] [-pprof addr] (file.html... | -corpus DIR | -n N [-seed S])
//	webrev query    -repo DIR 'EXPR'
//	webrev quarantine -dir DIR [list|replay]           # inspect / replay failed documents
//	webrev watch -seed URL [-checkpoint DIR] [-cycles N] [-interval 15m] [-drift FILE] [-out dir]
//	webrev experiments [-run E1,...] [-docs N] [-seed N]
//
// build and watch take observability flags: -metrics FILE writes a JSON
// snapshot of per-stage timings and counters, and -pprof ADDR serves
// /debug/pprof, /debug/vars and /metrics on ADDR for the duration of the
// run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strings"
	"time"

	"webrev/internal/concept"
	"webrev/internal/core"
	"webrev/internal/crawler"
	"webrev/internal/discover"
	"webrev/internal/dom"
	"webrev/internal/experiments"
	"webrev/internal/obs"
	"webrev/internal/repository"
	"webrev/internal/watch"
	"webrev/internal/xmlout"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "convert":
		err = cmdConvert(os.Args[2:], os.Stdout)
	case "schema":
		err = cmdSchema(os.Args[2:], false, os.Stdout)
	case "dtd":
		err = cmdSchema(os.Args[2:], true, os.Stdout)
	case "build":
		err = cmdBuild(os.Args[2:], os.Stdout)
	case "query":
		err = cmdQuery(os.Args[2:], os.Stdout)
	case "suggest":
		err = cmdSuggest(os.Args[2:], os.Stdout)
	case "quarantine":
		err = cmdQuarantine(os.Args[2:], os.Stdout)
	case "watch":
		err = cmdWatch(os.Args[2:], os.Stdout)
	case "experiments":
		err = cmdExperiments(os.Args[2:], os.Stdout)
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "webrev: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "webrev:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: webrev <command> [flags] [files]

commands:
  convert      transform HTML files into concept-tagged XML
  schema       discover the majority schema over HTML files
  dtd          derive the DTD over HTML files
  build        full pipeline: convert, discover, derive, conform, as a
               sharded disk-backed build of files, -corpus DIR or -n N
               resumes into -dir WORK (repository in WORK/final, -out DIR
               copies it); reports wall/RSS/disk, -verify checks identity
  query        evaluate a label-path query against a built repository
  suggest      propose new concept instances from unidentified text
  quarantine   list documents a build quarantined, or replay them after a fix
  watch        continuous operation: recrawl a site on a cadence, fold deltas,
               and report schema drift (state persists in -checkpoint DIR)
  experiments  regenerate the paper's evaluation (%s)

build and watch accept -metrics FILE (JSON stage-metrics snapshot) and
-pprof ADDR (live /debug/pprof + /metrics endpoint).
`, strings.Join(experimentIDs(), ", "))
}

func newPipeline(root string, sup, ratio float64) (*core.Pipeline, error) {
	return newTracedPipeline(root, sup, ratio, nil)
}

func newTracedPipeline(root string, sup, ratio float64, tr obs.Tracer) (*core.Pipeline, error) {
	return core.New(core.Config{
		Concepts:       concept.ResumeConcepts(),
		Constraints:    concept.ResumeConstraints(),
		RootName:       root,
		SupThreshold:   sup,
		RatioThreshold: ratio,
		Tracer:         tr,
	})
}

// obsFlags registers the shared observability flags on a command's flag
// set; finish starts the optional debug endpoint, and its returned func
// writes the snapshot file once the run is done.
func obsFlags(fs *flag.FlagSet) (metricsOut, pprofAddr *string) {
	metricsOut = fs.String("metrics", "", "write a JSON metrics snapshot (stage timings + counters) to this file")
	pprofAddr = fs.String("pprof", "", "serve /debug/pprof, /debug/vars and /metrics on this address during the run")
	return metricsOut, pprofAddr
}

// startObs wires a collector to the optional pprof endpoint and returns a
// finish func that writes the metrics file (when requested) and stops the
// endpoint.
func startObs(coll *obs.Collector, metricsOut, pprofAddr string, w io.Writer) (finish func() error, err error) {
	var dbg *obs.DebugServer
	if pprofAddr != "" {
		dbg, err = obs.ServeDebug(pprofAddr, coll)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "debug endpoint at http://%s/debug/pprof/ (metrics at /metrics)\n", dbg.Addr)
	}
	return func() error {
		if dbg != nil {
			dbg.Close()
		}
		if metricsOut != "" {
			snap := coll.Snapshot()
			snap.Meta = obs.CollectMeta(".")
			if err := snap.WriteFile(metricsOut); err != nil {
				return err
			}
			fmt.Fprintf(w, "wrote metrics snapshot to %s\n", metricsOut)
		}
		return nil
	}, nil
}

func readSources(paths []string) ([]core.Source, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("no input files")
	}
	var out []core.Source
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		out = append(out, core.Source{Name: p, HTML: string(b)})
	}
	return out, nil
}

func cmdConvert(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	root := fs.String("root", "resume", "root element name")
	fs.Parse(args)
	p, err := newPipeline(*root, 0, 0)
	if err != nil {
		return err
	}
	srcs, err := readSources(fs.Args())
	if err != nil {
		return err
	}
	for _, s := range srcs {
		doc := p.Convert(s.Name, s.HTML)
		fmt.Fprintf(w, "<!-- %s: %d tokens, %.0f%% identified -->\n",
			s.Name, doc.Stats.Tokens, doc.Stats.IdentifiedRatio()*100)
		fmt.Fprint(w, xmlout.Marshal(doc.XML))
	}
	return nil
}

func cmdSchema(args []string, asDTD bool, w io.Writer) error {
	fs := flag.NewFlagSet("schema", flag.ExitOnError)
	root := fs.String("root", "resume", "root element name")
	sup := fs.Float64("sup", 0.5, "support threshold")
	ratio := fs.Float64("ratio", 0.1, "support-ratio threshold")
	fs.Parse(args)
	p, err := newPipeline(*root, *sup, *ratio)
	if err != nil {
		return err
	}
	srcs, err := readSources(fs.Args())
	if err != nil {
		return err
	}
	var docs []*core.Document
	for _, s := range srcs {
		docs = append(docs, p.Convert(s.Name, s.HTML))
	}
	s := p.DiscoverSchema(docs)
	if asDTD {
		fmt.Fprint(w, p.DeriveDTD(s).Render())
		return nil
	}
	fmt.Fprintf(w, "majority schema over %d documents (%d paths explored):\n%s",
		s.Docs, s.Explored, s.String())
	return nil
}

func cmdQuery(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	dir := fs.String("repo", "", "repository `DIR`, as build -out or watch -out writes it or build leaves it in -dir WORK/final")
	fs.Parse(args)
	if *dir == "" || fs.NArg() != 1 {
		return fmt.Errorf("usage: webrev query -repo DIR 'EXPR'")
	}
	repo, err := repository.Load(*dir)
	if err != nil {
		return err
	}
	refs, err := repo.Query(fs.Arg(0))
	if err != nil {
		return err
	}
	names := repo.Names()
	for _, r := range refs {
		fmt.Fprintf(w, "%s\t<%s val=%q>\n", names[r.Doc], r.Node.Tag, r.Val)
	}
	fmt.Fprintf(w, "%d matches in %d documents\n", len(refs), repo.Len())
	return nil
}

func cmdSuggest(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("suggest", flag.ExitOnError)
	root := fs.String("root", "resume", "root element name")
	minDocs := fs.Int("mindocs", 3, "minimum supporting documents")
	fs.Parse(args)
	p, err := newPipeline(*root, 0, 0)
	if err != nil {
		return err
	}
	srcs, err := readSources(fs.Args())
	if err != nil {
		return err
	}
	var trees []*dom.Node
	for _, d := range p.ConvertAll(srcs) {
		trees = append(trees, d.XML)
	}
	suggestions := discover.SuggestInstances(trees, p.Set(), discover.Options{MinDocs: *minDocs})
	if len(suggestions) == 0 {
		fmt.Fprintln(w, "no instance candidates found")
		return nil
	}
	fmt.Fprintf(w, "%-20s %-18s %5s  example\n", "concept context", "candidate", "docs")
	for _, s := range suggestions {
		example := ""
		if len(s.Examples) > 0 {
			example = s.Examples[0]
		}
		fmt.Fprintf(w, "%-20s %-18s %5d  %s\n", s.Concept, s.Instance, s.Docs, example)
	}
	return nil
}

// cmdQuarantine inspects a quarantine directory (Config.QuarantineDir):
// `list` prints each failed document's record, and `replay` re-converts
// the stored HTML through a fresh pipeline — the round trip after a fix —
// removing entries that now convert cleanly when -rm is set.
func cmdQuarantine(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("quarantine", flag.ExitOnError)
	dir := fs.String("dir", "", "quarantine directory a build wrote (QuarantineDir)")
	root := fs.String("root", "resume", "root element name for replay")
	rm := fs.Bool("rm", false, "on replay, remove entries that convert cleanly")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("usage: webrev quarantine -dir DIR [list|replay]")
	}
	action := "list"
	if fs.NArg() > 0 {
		action = fs.Arg(0)
	}
	if action != "list" && action != "replay" {
		return fmt.Errorf("unknown quarantine action %q (want list or replay)", action)
	}
	store, err := core.OpenQuarantineStore(*dir)
	if err != nil {
		return err
	}
	entries, err := store.List()
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		fmt.Fprintln(w, "quarantine is empty")
		return nil
	}
	switch action {
	case "list":
		fmt.Fprintf(w, "%-20s %-8s %-18s %-30s %s\n", "id", "kind", "stage", "document", "error")
		for _, e := range entries {
			errLine := e.Record.Err
			if i := strings.IndexByte(errLine, '\n'); i >= 0 {
				errLine = errLine[:i]
			}
			fmt.Fprintf(w, "%-20s %-8s %-18s %-30s %s\n",
				e.ID, e.Record.Kind, e.Record.Stage, e.Record.URL, errLine)
		}
		fmt.Fprintf(w, "%d quarantined documents\n", len(entries))
		return nil
	case "replay":
		p, err := newPipeline(*root, 0, 0)
		if err != nil {
			return err
		}
		fixed := 0
		for _, e := range entries {
			html, err := store.HTML(e.ID)
			if err != nil {
				return err
			}
			d, degraded, failed := p.ConvertSource(core.Source{Name: e.Record.URL, HTML: html})
			switch {
			case failed != nil:
				fmt.Fprintf(w, "%-20s still failing: %s\n", e.ID, failed)
			case degraded != nil:
				fmt.Fprintf(w, "%-20s degraded: %s\n", e.ID, degraded.Err)
			default:
				fixed++
				fmt.Fprintf(w, "%-20s ok (%d tokens, %.0f%% identified)\n",
					e.ID, d.Stats.Tokens, d.Stats.IdentifiedRatio()*100)
				if *rm {
					if err := store.Remove(e.ID); err != nil {
						return err
					}
				}
			}
		}
		fmt.Fprintf(w, "replayed %d documents, %d now convert cleanly\n", len(entries), fixed)
		return nil
	default:
		return fmt.Errorf("unknown quarantine action %q (want list or replay)", action)
	}
}

// cmdWatch runs the continuous-operation loop: recrawl the seed site every
// interval, fold page deltas into the accumulator, rebuild incrementally,
// and print (and optionally write) each cycle's drift report. With
// -checkpoint the state survives restarts. The directory may also hold a
// streaming build's checkpoint (`crawl -stream -checkpoint DIR`, i.e.
// BuildStream with Config.CheckpointDir): its conv/ segment seeds the
// first cycle, and the first save replaces it with the watch state. A
// repository directory
// (`webrev build -out DIR`) is not a checkpoint. -out publishes the
// conformed repository in that format after every cycle, by renaming each
// file into place, so `webrevd -follow DIR` can track it while it is
// rewritten.
func cmdWatch(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	seed := fs.String("seed", "", "seed URL every cycle starts from (required)")
	ckpt := fs.String("checkpoint", "", "state directory persisted after every cycle and resumed on start")
	cycles := fs.Int("cycles", 0, "cycles to run before exiting (0 = run until interrupted)")
	interval := fs.Duration("interval", 15*time.Minute, "sleep between cycles")
	root := fs.String("root", "resume", "root element name")
	sup := fs.Float64("sup", 0.5, "support threshold")
	ratio := fs.Float64("ratio", 0.1, "support-ratio threshold")
	minShift := fs.Float64("min-shift", 0, "support change below which a path is not reported as shifted (0 = default)")
	topicHits := fs.Int("topic-hits", 3, "concept hits required for a crawled page to join the corpus")
	driftOut := fs.String("drift", "", "write the latest cycle's drift report JSON to this file (servable via `webrevd -drift`)")
	out := fs.String("out", "", "export the conformed repository to this directory after every cycle")
	metricsOut, pprofAddr := obsFlags(fs)
	fs.Parse(args)
	if *seed == "" {
		return fmt.Errorf("usage: webrev watch -seed URL [-checkpoint DIR] [-cycles N] [-interval DUR]")
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
	watcher, err := watch.New(watch.Options{
		Pipeline: p,
		Crawler: &crawler.Crawler{
			Filter: crawler.ResumeFilter(*topicHits),
			Fetch:  crawler.FetchPolicy{Revalidate: true},
			Tracer: tr,
		},
		Seed:            *seed,
		StateDir:        *ckpt,
		MinSupportShift: *minShift,
		Tracer:          tr,
	})
	if err != nil {
		return err
	}
	if n := watcher.Docs(); n > 0 {
		fmt.Fprintf(w, "resuming at cycle %d with %d live documents\n", watcher.Cycles(), n)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var emitErr error
	err = watcher.Run(ctx, *cycles, *interval, func(res *watch.Result) {
		fmt.Fprintln(w, res.Drift.Summary())
		if emitErr != nil {
			return
		}
		if *driftOut != "" {
			data, err := json.MarshalIndent(res.Drift, "", " ")
			if err != nil {
				emitErr = err
				return
			}
			if err := os.WriteFile(*driftOut, append(data, '\n'), 0o644); err != nil {
				emitErr = err
				return
			}
		}
		if *out != "" {
			if err := res.Repo.Export().Save(*out); err != nil {
				emitErr = err
			}
		}
	})
	if err == nil {
		err = emitErr
	}
	if err != nil {
		return err
	}
	return finish()
}

// reporter is what every experiment runner returns: a result that renders
// its own report.
type reporter interface{ Report() string }

// experimentTable lists every experiment id `webrev experiments` knows, in
// the order it runs them, with its default corpus size (which -docs
// replaces), the smallest -docs it can use, and its runner.
var experimentTable = []struct {
	id        string
	docs, min int
	run       func(docs int, seed int64) (reporter, error)
}{
	{"E1", 50, 1, func(n int, seed int64) (reporter, error) { return experiments.RunAccuracy(n, seed), nil }},
	{"E2", 100, 1, func(n int, seed int64) (reporter, error) { return experiments.RunConstraints(n, seed), nil }},
	// E3 fits its line over a quarter, a half and all of -docs.
	{"E3", 0, 4, func(n int, seed int64) (reporter, error) {
		sizes := []int{20, 50, 100, 190, 380} // without -docs: Figure 5's range
		if n > 0 {
			sizes = []int{n / 4, n / 2, n}
		}
		return experiments.RunScalability(sizes, seed), nil
	}},
	{"E4", 1400, 1, func(n int, seed int64) (reporter, error) { return experiments.RunSampleDTD(n, seed), nil }},
	{"E5", 200, 1, func(n int, seed int64) (reporter, error) { return experiments.RunSchemaComparison(n, seed), nil }},
	// E6 trains on one half of -docs and tests on the other.
	{"E6", 80, 2, func(n int, seed int64) (reporter, error) { return experiments.RunClassifier(n/2, n/2, seed), nil }},
	{"E7", 40, 1, func(n int, seed int64) (reporter, error) { return experiments.RunRobustness(n, 0.2, seed) }},
	{"E10", 60, 1, func(n int, seed int64) (reporter, error) {
		return experiments.RunFaultTolerance(n, []float64{0, 0.1, 0.25, 0.75}, 0, seed)
	}},
	{"E13", 40, 1, func(n int, seed int64) (reporter, error) {
		return experiments.RunDriftDetection(n, []float64{0, 0.05, 0.1, 0.2, 0.4}, seed)
	}},
}

// experimentIDs returns the ids of experimentTable, in order.
func experimentIDs() []string {
	ids := make([]string, len(experimentTable))
	for i, e := range experimentTable {
		ids[i] = e.id
	}
	return ids
}

// cmdExperiments runs the -run ids of experimentTable, in table order.
// Every id and the -docs size are checked before anything runs, so a typo,
// a retired id or a corpus too small for an experiment fails instead of
// silently running nothing or printing NaN.
func cmdExperiments(args []string, w io.Writer) error {
	ids := experimentIDs()
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	run := fs.String("run", strings.Join(ids, ","), "comma-separated experiment ids")
	docs := fs.Int("docs", 0, "override corpus size (0 = per-experiment default)")
	seed := fs.Int64("seed", 1, "corpus seed")
	fs.Parse(args)
	want := map[string]bool{}
	for _, id := range strings.Split(*run, ",") {
		id = strings.TrimSpace(id)
		if !slices.Contains(ids, strings.ToUpper(id)) {
			return fmt.Errorf("usage: webrev experiments [-run ID,...]: unknown experiment %q (valid: %s)",
				id, strings.Join(ids, ", "))
		}
		want[strings.ToUpper(id)] = true
	}
	for _, e := range experimentTable {
		if want[e.id] && *docs != 0 && *docs < e.min {
			return fmt.Errorf("usage: webrev experiments [-docs N]: %s needs -docs %d or more", e.id, e.min)
		}
	}
	for _, e := range experimentTable {
		if !want[e.id] {
			continue
		}
		n := e.docs
		if *docs > 0 {
			n = *docs
		}
		r, err := e.run(n, *seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, r.Report())
	}
	return nil
}
