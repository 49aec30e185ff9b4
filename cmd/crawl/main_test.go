package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"webrev/internal/obs"
)

func baseOptions() options {
	return options{
		n:           5,
		distractors: 2,
		seed:        1,
		workers:     4,
		timeout:     5 * time.Second,
		retries:     2,
	}
}

func TestRunCrawlDemo(t *testing.T) {
	// Smoke test: the demo serves a site, crawls it and reports without
	// error (output goes to stdout, which the test harness captures).
	if err := run(context.Background(), baseOptions()); err != nil {
		t.Fatal(err)
	}
}

func TestRunCrawlDemoMetrics(t *testing.T) {
	o := baseOptions()
	o.metricsOut = filepath.Join(t.TempDir(), "crawl.json")
	if err := run(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(o.metricsOut)
	if err != nil {
		t.Fatalf("metrics snapshot not written: %v", err)
	}
	defer f.Close()
	snap, err := obs.ReadSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Stages[obs.StageCrawl].Count != 1 {
		t.Fatalf("crawl stage not recorded: %v", snap.Stages)
	}
	if snap.Counters[obs.CtrCrawlFetched] == 0 {
		t.Fatalf("crawl.fetched counter empty: %v", snap.Counters)
	}
}

func TestRunCrawlDemoWithFaults(t *testing.T) {
	o := baseOptions()
	o.faultRate = 0.3
	o.faultSeed = 2
	o.timeout = 500 * time.Millisecond
	if err := run(context.Background(), o); err != nil {
		t.Fatal(err)
	}
}

func TestRunCrawlDemoStream(t *testing.T) {
	o := baseOptions()
	o.stream = true
	o.inFlight = 3
	o.metricsOut = filepath.Join(t.TempDir(), "stream.json")
	if err := run(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(o.metricsOut)
	if err != nil {
		t.Fatalf("metrics snapshot not written: %v", err)
	}
	defer f.Close()
	snap, err := obs.ReadSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	// The streaming build ran the whole pipeline inside the crawl.
	if snap.Counters[obs.CtrDocsConverted] != 5 {
		t.Fatalf("docs.converted = %d, want 5", snap.Counters[obs.CtrDocsConverted])
	}
	if peak := snap.Gauges[obs.GaugeStreamInFlightPeak]; peak < 1 || peak > 3 {
		t.Fatalf("peak in-flight = %d, want within (0, 3]", peak)
	}
	if snap.Stages[obs.StageMerge].Count != 1 {
		t.Fatalf("merge stage not recorded: %v", snap.Stages)
	}
}

// TestRunCrawlDemoStreamDefaultCap: without -inflight the report prints
// the cap the streaming build applied, as its metrics snapshot records it.
func TestRunCrawlDemoStreamDefaultCap(t *testing.T) {
	o := baseOptions()
	o.stream = true
	o.metricsOut = filepath.Join(t.TempDir(), "stream.json")
	out := captureStdout(t, func() error { return run(context.Background(), o) })
	i := strings.Index(out, "peak in-flight documents")
	if i < 0 {
		t.Fatalf("no in-flight line in:\n%s", out)
	}
	var peak, limit, workers int64
	if _, err := fmt.Sscanf(out[i:], "peak in-flight documents %d (cap %d); %d conversion workers", &peak, &limit, &workers); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(o.metricsOut)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap, err := obs.ReadSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	if want := snap.Gauges[obs.GaugeStreamInFlightCap]; limit != want || limit < workers || workers < 1 {
		t.Fatalf("printed cap %d with %d workers, build applied cap %d", limit, workers, want)
	}
	if peak < 1 || peak > limit {
		t.Fatalf("peak %d outside (0, cap %d]", peak, limit)
	}
}

// captureStdout returns what fn writes to os.Stdout.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	err = fn()
	os.Stdout = stdout
	w.Close()
	s := <-out
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunCrawlDemoStreamCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := baseOptions()
	o.stream = true
	// Like the batch demo, cancellation reports partial progress instead of
	// failing the command.
	if err := run(ctx, o); err != nil {
		t.Fatal(err)
	}
}

func TestRunCrawlDemoCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// A pre-canceled context must not error out the demo; it prints the
	// partial report instead.
	if err := run(ctx, baseOptions()); err != nil {
		t.Fatal(err)
	}
}
