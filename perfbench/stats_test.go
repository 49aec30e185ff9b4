package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.9, 90}, {0.05, 5}} {
		got, err := percentile(xs, c.q)
		if err != nil || got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, %v; want %v", c.q, got, err, c.want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile reordered its input")
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	// p90 of 100 samples has exactly ten beyond it; p91 has nine.
	if _, err := percentile(xs, 0.90); err != nil {
		t.Errorf("p90 of 100 samples refused: %v", err)
	}
	if _, err := percentile(xs, 0.91); err == nil {
		t.Error("p91 of 100 samples reported with nine samples beyond it")
	}
	if _, err := percentile(xs, 0.99); err == nil {
		t.Error("p99 of 100 samples reported")
	}
	if _, err := percentile(make([]float64, 1100), 0.99); err != nil {
		t.Errorf("p99 of 1100 samples refused: %v", err)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples reported")
	}
}

func TestPercentileCountsFailuresAsMisses(t *testing.T) {
	xs := make([]float64, 1100)
	for i := range xs {
		xs[i] = 1
	}
	// Twelve failures are more than the 1% p99 leaves above it.
	for i := 0; i < 12; i++ {
		xs[i] = math.Inf(1)
	}
	p99, err := percentile(xs, 0.99)
	if err != nil || !math.IsInf(p99, 1) {
		t.Errorf("p99 with 12 failures in 1100 = %v, %v; want +Inf", p99, err)
	}
}

// TestReportRefusesNonFinite checks that an infinite tail, which failed
// requests produce, fails the run instead of reaching the result line.
func TestReportRefusesNonFinite(t *testing.T) {
	r := newReport()
	r.ops(1100, 12)
	r.set("tail_ms", math.Inf(1), "ms", 1100)
	if err := r.print(); err == nil {
		t.Error("a result with an infinite tail_ms was printed")
	}
}

func TestRepeatsPoolSamples(t *testing.T) {
	var rs repeats
	// Each repeat alone has too few samples for a p90 with ten beyond it;
	// pooled, the two have enough.
	a, b := make([]float64, 60), make([]float64, 60)
	for i := range a {
		a[i], b[i] = float64(i+1), float64(i+61)
	}
	rs.add(a, 10)
	rs.add(b, 30)
	r := newReport()
	if err := rs.report(r, 0.9); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{"throughput_per_s": 20, "p50_ms": 60, "tail_ms": 108} {
		if got := r.res.Metrics[name].Value; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

func TestUnattributed(t *testing.T) {
	if got := unattributed(100*time.Millisecond, 90*time.Millisecond); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("unattributed(100ms, 90ms) = %v, want 0.1", got)
	}
	if got := unattributed(0, time.Second); got != 0 {
		t.Errorf("unattributed with no wall time = %v", got)
	}
	// Overlapping spans are a double count; the ratio says so.
	if got := unattributed(100*time.Millisecond, 150*time.Millisecond); got >= 0 {
		t.Errorf("double-counted spans reported as %v", got)
	}
}

func TestLayersReconcileWithWall(t *testing.T) {
	l := newLayers()
	start := time.Now()
	t0 := start
	for i := 0; i < 3; i++ {
		time.Sleep(time.Millisecond)
		t0 = l.lap("a", t0)
		time.Sleep(time.Millisecond)
		t0 = l.lap("b", t0)
	}
	wall := time.Since(start)
	// Back-to-back laps tile the timeline: nothing is left unattributed
	// beyond the final clock read.
	if u := unattributed(wall, l.covered()); u < 0 || u > 0.01 {
		t.Errorf("back-to-back laps leave %v of wall unattributed", u)
	}
	o := newLayers()
	o.add("a", time.Millisecond)
	l.merge(o)
	if l.calls["a"] != 4 || l.calls["b"] != 3 || l.spans != 7 {
		t.Errorf("merged calls a=%d b=%d spans=%d", l.calls["a"], l.calls["b"], l.spans)
	}
}

func TestTraceOverhead(t *testing.T) {
	if got := traceOverhead(1000, time.Microsecond, 100*time.Millisecond); math.Abs(got-0.01) > 1e-12 {
		t.Errorf("1000 spans of 1us over 100ms = %v, want 0.01", got)
	}
	if c := spanCost(); c <= 0 || c > time.Millisecond {
		t.Errorf("span cost %v", c)
	}
}

// TestOpenLoopTimesFromDueTime drives a server that takes 10ms per request
// at 400 requests per second over one connection: the schedule falls
// behind, and each request's latency must count the wait behind earlier
// ones, not only its own round trip.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(10 * time.Millisecond)
	}))
	defer srv.Close()
	cs := clients(1)
	defer closeClients(cs)
	shots := openLoop(cs, srv.URL, 400, 50*time.Millisecond,
		func(j int) (int, string) { return j, "/" },
		func(j int) bool { return j == 0 })
	if len(shots) != 20 {
		t.Fatalf("%d shots, want 20", len(shots))
	}
	for j, s := range shots {
		if !s.ok {
			t.Fatalf("shot %d failed", j)
		}
		if want := time.Duration(j) * 2500 * time.Microsecond; s.due != want {
			t.Errorf("shot %d due at %v, want %v", j, s.due, want)
		}
		if s.latency() != s.lag()+(s.done-s.sent) {
			t.Errorf("shot %d: latency %v is not lag %v plus round trip %v", j, s.latency(), s.lag(), s.done-s.sent)
		}
	}
	last := shots[len(shots)-1]
	// 20 requests of 10ms on one connection finish no earlier than 200ms,
	// while the last was due at 47.5ms.
	if last.lag() < 100*time.Millisecond || last.latency() < 150*time.Millisecond {
		t.Errorf("backlogged request: lag %v, latency %v; the generator hid the queue", last.lag(), last.latency())
	}
	if shots[0].body == nil || shots[1].body != nil {
		t.Error("keep did not select which bodies to retain")
	}
	shots[1].ok = false
	lat := latencies(shots)
	if !math.IsInf(lat[1], 1) || lat[2] != ms(shots[2].latency()) {
		t.Errorf("latencies = %v; a failed request must read as infinite", lat[:3])
	}
	if p99, err := percentile(lat, 0.99); err == nil {
		t.Errorf("p99 of 20 samples reported: %v", p99)
	}
}

func TestResetPeakRSS(t *testing.T) {
	buf := make([]byte, 64<<20)
	for i := range buf {
		buf[i] = byte(i)
	}
	before, err := peakRSSMB()
	if err != nil {
		t.Skip("no /proc/self/status:", err)
	}
	buf = nil
	if err := resetPeakRSS(); err != nil {
		t.Skip("peak RSS cannot be reset here:", err)
	}
	after, err := peakRSSMB()
	if err != nil {
		t.Fatal(err)
	}
	if after > before-32 {
		t.Errorf("peak RSS %.1fMB after reset, %.1fMB before: the 64MB buffer still counts", after, before)
	}
}
