// Command perfbench is webrev's benchmark. One run builds a workload's
// inputs from a seed, drives the program's public API for a fixed time,
// checks the outputs, and prints its metrics, the last line as one JSON
// object. Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload build|recrawl|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 the run is untraced and reports the end-to-end metrics;
// with --trace 1 the benchmark times its own calls into each layer and
// reports the per-layer metrics. README.md explains every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// setupRepeats is how many times an untraced run builds its inputs; the
// reported set-up time is the median, and every repeat must produce the
// same inputs.
const setupRepeats = 3

// workload is one of the benchmark's traffic shapes.
type workload interface {
	// setup builds the workload's inputs under dir from seed and returns a
	// fingerprint of them: equal seeds must give equal fingerprints.
	setup(dir string, seed int64) (string, error)
	// measure runs the untraced timed phase for about seconds and reports
	// the end-to-end metrics.
	measure(r *report, seconds float64) error
	// trace runs a traced pass for about seconds and reports the per-layer
	// metrics this workload's layers own. primary marks the run's own
	// workload, which also reports the timeline reconciliation
	// (unattributed_ratio and trace.overhead_ratio).
	trace(r *report, seconds float64, primary bool) error
}

// workloads lists the workload names in the order traced runs visit them.
var workloads = []string{"build", "recrawl", "serve"}

// newWorkload returns the named workload. It has one size, whether its
// run is untraced, traced, or a traced run of another workload.
func newWorkload(name string) (workload, error) {
	switch name {
	case "build":
		return newBuildBench(), nil
	case "recrawl":
		return newRecrawlBench(), nil
	case "serve":
		return newServeBench(), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want build, recrawl or serve)", name)
}

// otherSeconds is the time a traced run gives each other workload's pass
// beyond that pass's minimum repeats.
const otherSeconds = 2

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one run's metrics, operation counts, and correctness
// failures.
type report struct {
	res     result
	order   []string
	samples map[string]int
	wrong   []string
}

func newReport() *report {
	return &report{res: result{Correct: true, Metrics: map[string]metric{}}, samples: map[string]int{}}
}

// set records a metric with the number of samples it rests on.
func (r *report) set(name string, v float64, unit string, samples int) {
	if _, ok := r.res.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = samples
}

// ops counts operations attempted and failed.
func (r *report) ops(attempted, failed int64) {
	r.res.Attempted += attempted
	r.res.Failed += failed
}

// wrongf records a correctness failure; the run then exits nonzero.
func (r *report) wrongf(format string, args ...any) {
	r.res.Correct = false
	r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
}

// print writes one line per metric, then the JSON result line. A metric
// that is not a finite number (a percentile over failed requests, which
// count as infinitely slow) fails the run instead of the result line.
func (r *report) print() error {
	for _, name := range r.order {
		m := r.res.Metrics[name]
		fmt.Printf("%-36s %14.6g %-6s n=%d\n", name, m.Value, m.Unit, r.samples[name])
	}
	fmt.Printf("%-36s %14.6g %-6s n=%d\n", "error_ratio", ratio(float64(r.res.Failed), float64(r.res.Attempted)), "ratio", r.res.Attempted)
	for _, w := range r.wrong {
		fmt.Printf("INCORRECT: %s\n", w)
	}
	for _, name := range r.order {
		if v := r.res.Metrics[name].Value; math.IsInf(v, 0) || math.IsNaN(v) {
			return fmt.Errorf("%s is %v after %d failed of %d operations", name, v, r.res.Failed, r.res.Attempted)
		}
	}
	line, err := json.Marshal(r.res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	name := flag.String("workload", "", "workload to run: build, recrawl or serve")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	root := flag.String("root", ".", "checkout root; scratch files go under ROOT/.bench_build")
	flag.Parse()

	r, err := run(*root, *name, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := r.print(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !r.res.Correct {
		os.Exit(1)
	}
	if r.res.Failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed\n", r.res.Failed, r.res.Attempted)
		os.Exit(1)
	}
}

// run executes one benchmark run in a scratch directory it removes again.
func run(root, name string, seed int64, seconds float64, traced bool) (*report, error) {
	if _, err := newWorkload(name); err != nil {
		return nil, err
	}
	base := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(base, "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	r := newReport()
	if traced {
		return r, runTraced(r, work, name, seed, seconds)
	}
	return r, runUntraced(r, work, name, seed, seconds)
}

// runUntraced builds the workload's inputs setupRepeats times, then runs
// its timed phase and reports the end-to-end metrics.
func runUntraced(r *report, work, name string, seed int64, seconds float64) error {
	w, err := newWorkload(name)
	if err != nil {
		return err
	}
	var setups []float64
	var first string
	for i := 0; i < setupRepeats; i++ {
		t := time.Now()
		fp, err := w.setup(filepath.Join(work, name), seed)
		if err != nil {
			return fmt.Errorf("%s set-up: %w", name, err)
		}
		setups = append(setups, time.Since(t).Seconds())
		if i == 0 {
			first = fp
		} else if fp != first {
			r.wrongf("%s set-up is not deterministic: seed %d gave inputs %s then %s", name, seed, first, fp)
		}
	}
	if err := resetPeakRSS(); err != nil {
		return err
	}
	if err := w.measure(r, seconds); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	peak, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.set("setup_s", median(setups), "s", len(setups))
	r.set("peak_rss_mb", peak, "MB", 1)
	return nil
}

// runTraced runs the traced pass of the named workload for the full time,
// then short traced passes of the other workloads at their full size, so
// every per-layer row is measured in every traced run and describes the
// workload it belongs to. The runtime's GC share covers the primary pass
// only.
func runTraced(r *report, work, name string, seed int64, seconds float64) error {
	order := []string{name}
	for _, n := range workloads {
		if n != name {
			order = append(order, n)
		}
	}
	for i, n := range order {
		primary := i == 0
		w, err := newWorkload(n)
		if err != nil {
			return err
		}
		if _, err := w.setup(filepath.Join(work, n), seed); err != nil {
			return fmt.Errorf("%s set-up: %w", n, err)
		}
		secs := float64(otherSeconds)
		if primary {
			secs = seconds
		}
		before := readCPU()
		if err := w.trace(r, secs, primary); err != nil {
			return fmt.Errorf("%s traced pass: %w", n, err)
		}
		if primary {
			r.set("runtime.gc_cpu_ratio", gcShare(before, readCPU()), "ratio", 1)
		}
	}
	return nil
}
