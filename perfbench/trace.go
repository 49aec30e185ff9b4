package main

import (
	"sync/atomic"
	"time"
)

// layers accumulates the spans of one timeline — one goroutine's
// sequence of calls into the program — as busy time and call counts per
// layer name. A timeline is single-threaded, so it needs no lock; timelines
// of parallel workers are merged after they join.
type layers struct {
	busy  map[string]time.Duration
	calls map[string]int64
	spans int64
}

func newLayers() *layers {
	return &layers{busy: make(map[string]time.Duration), calls: make(map[string]int64)}
}

// lap closes the span that started at t under name and returns the time it
// closed, which starts the next span: back-to-back calls are timed with one
// clock read each.
func (l *layers) lap(name string, t time.Time) time.Time {
	now := time.Now()
	l.add(name, now.Sub(t))
	return now
}

// add records one span of duration d under name.
func (l *layers) add(name string, d time.Duration) {
	l.busy[name] += d
	l.calls[name]++
	l.spans++
}

// merge folds another timeline's spans into l.
func (l *layers) merge(o *layers) {
	for k, v := range o.busy {
		l.busy[k] += v
	}
	for k, v := range o.calls {
		l.calls[k] += v
	}
	l.spans += o.spans
}

// covered is the total span time recorded: on a timeline whose spans do not
// nest, the part of its wall time the layers account for.
func (l *layers) covered() time.Duration {
	var d time.Duration
	for _, v := range l.busy {
		d += v
	}
	return d
}

// unattributed is the share of wall time no layer span covers. Spans on one
// timeline never overlap, so the result lies in [0,1] unless a caller
// double-counts — a negative value is reported as it is, not hidden.
func unattributed(wall, covered time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(wall-covered) / float64(wall)
}

// spanCost measures what recording one span costs on this machine: the
// clock read plus the map update of lap.
func spanCost() time.Duration {
	const n = 200000
	l := newLayers()
	t := time.Now()
	start := t
	for i := 0; i < n; i++ {
		t = l.lap("calibrate", t)
	}
	return time.Since(start) / n
}

// traceOverhead is the tracer's own cost as a share of the traced wall
// time: spans recorded times the calibrated cost of one span.
func traceOverhead(spans int64, cost, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(spans) * float64(cost) / float64(wall)
}

// clock is a span accumulator that concurrent goroutines share: request
// handlers and store reads running on server goroutines.
type clock struct {
	ns, n atomic.Int64
}

func (c *clock) add(d time.Duration) {
	c.ns.Add(int64(d))
	c.n.Add(1)
}

// lap closes the span that started at t and returns the time it closed.
func (c *clock) lap(t time.Time) time.Time {
	now := time.Now()
	c.add(now.Sub(t))
	return now
}

func (c *clock) reset() {
	c.ns.Store(0)
	c.n.Store(0)
}

func (c *clock) total() time.Duration { return time.Duration(c.ns.Load()) }

// meanUS is the mean span in microseconds, 0 with no spans.
func (c *clock) meanUS() float64 { return ratio(us(c.total()), float64(c.n.Load())) }

// meanMS is the mean span in milliseconds, 0 with no spans.
func (c *clock) meanMS() float64 { return ratio(ms(c.total()), float64(c.n.Load())) }
