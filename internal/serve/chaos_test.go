package serve

// Chaos harness for the serving layer (run via `make chaos-serve`, always
// under -race): overload that must shed instead of queue unboundedly,
// injected handler panics that must not kill the process, corrupt reloads
// that must not lose the serving generation, and a drain that must not
// lose an in-flight request.

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"webrev/internal/faultinject"
	"webrev/internal/obs"
	"webrev/internal/repository"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

// TestChaosOverloadShedsBoundedP99 drives the same server first at its
// admitted concurrency (slots + queue positions) and then at 4x it, into a
// tight in-flight limit with slowed (delay-injected) handlers. At either
// load admission control must answer without errors, admit work, keep the
// admitted p99 bounded and the in-flight count under the cap; under
// overload it sheds the excess with 503s — a larger share than at 1x —
// while goodput holds: the in-flight cap, not the offered load, sets the
// latency and the admitted rate.
func TestChaosOverloadShedsBoundedP99(t *testing.T) {
	const maxInFlight = 4
	faults := faultinject.NewStage(faultinject.StageConfig{
		Seed:         1,
		Rate:         1,
		Kinds:        []faultinject.StageKind{faultinject.StageDelay},
		FaultsPerKey: -1,
		Delay:        2 * time.Millisecond,
	})
	s := NewServer(testRepo(t, 8, 0), Options{
		MaxInFlight: maxInFlight,
		MaxQueue:    maxInFlight,
		QueueWait:   20 * time.Millisecond,
		Faults:      faults,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var runs [2]*LoadResult
	for i, mult := range []int{1, 4} {
		shedBefore := s.Stats().Shed
		res, err := LoadTest(s, ts.URL, LoadOptions{
			Clients:  mult * (maxInFlight + maxInFlight),
			Duration: 600 * time.Millisecond,
			Workload: []string{"/api/count?q=" + url.QueryEscape("//institution")},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Admitted == 0 {
			t.Fatalf("%dx load admitted nothing: %s", mult, res)
		}
		if res.Errors != 0 {
			t.Fatalf("%dx load produced %d non-shed errors: %s", mult, res.Errors, res)
		}
		// Admitted latency is bounded by queue wait + injected delay +
		// handler work; 250ms is an order of magnitude of slack over that,
		// and far below what unbounded queueing at 4x would produce.
		if res.P99 > 250*time.Millisecond {
			t.Fatalf("%dx load admitted p99 = %v, want bounded: %s", mult, res.P99, res)
		}
		st := s.Stats()
		if st.InFlightPeak > maxInFlight {
			t.Fatalf("in-flight peak %d exceeded the cap %d", st.InFlightPeak, maxInFlight)
		}
		if st.Shed-shedBefore != res.Shed {
			t.Fatalf("%dx load: stats shed %d != load result shed %d", mult, st.Shed-shedBefore, res.Shed)
		}
		runs[i] = res
	}
	atCap, over := runs[0], runs[1]
	if over.Shed == 0 {
		t.Fatalf("4x overload shed nothing: %s", over)
	}
	if over.ShedRate() <= atCap.ShedRate() {
		t.Fatalf("shed rate did not grow with load: %.2f at 1x vs %.2f at 4x", atCap.ShedRate(), over.ShedRate())
	}
	// Goodput must not collapse under overload: 4x keeps at least a third
	// of the at-capacity goodput.
	if over.Goodput < atCap.Goodput/3 {
		t.Fatalf("goodput collapsed under overload: %.0f/s at 1x vs %.0f/s at 4x", atCap.Goodput, over.Goodput)
	}
}

// TestChaosShedCarriesRetryAfter saturates a one-slot server with a slow
// in-flight request and asserts the shed response is a 503 with a
// Retry-After header.
func TestChaosShedCarriesRetryAfter(t *testing.T) {
	faults := faultinject.NewStage(faultinject.StageConfig{
		Seed:         1,
		Rate:         1,
		Kinds:        []faultinject.StageKind{faultinject.StageDelay},
		FaultsPerKey: -1,
		Delay:        400 * time.Millisecond,
	})
	s := NewServer(testRepo(t, 2, 0), Options{
		MaxInFlight: 1,
		MaxQueue:    -1, // no queue: the second request sheds immediately
		Faults:      faults,
		RetryAfter:  7,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		http.Get(ts.URL + "/api/paths")
	}()
	waitFor(t, time.Second, "the slow request to occupy the slot", func() bool {
		return s.Stats().InFlight == 1
	})

	resp, err := http.Get(ts.URL + "/api/docs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated request status = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After = %q, want %q", got, "7")
	}
	<-done
	if st := s.Stats(); st.Shed != 1 {
		t.Fatalf("shed = %d, want 1", st.Shed)
	}
}

// TestChaosPanicInjectionIsolated fires injected panics on every query
// request and asserts the blast radius is one 500 per request: the process
// stays up, other endpoints keep answering, and each panic leaves a
// structured record on /api/stats.
func TestChaosPanicInjectionIsolated(t *testing.T) {
	faults := faultinject.NewStage(faultinject.StageConfig{
		Seed:         1,
		Rate:         1,
		Kinds:        []faultinject.StageKind{faultinject.StagePanic},
		FaultsPerKey: -1,
		Stages:       []string{obs.ServeEndpointStage("query")},
	})
	s := NewServer(testRepo(t, 4, 0), Options{Faults: faults})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 5
	for i := 0; i < n; i++ {
		resp, err := http.Get(fmt.Sprintf("%s/api/query?q=%s&limit=%d",
			ts.URL, url.QueryEscape("//institution"), i+1))
		if err != nil {
			t.Fatalf("query %d: transport error (dead server?): %v", i, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("query %d status = %d, want 500", i, resp.StatusCode)
		}
	}

	// The panicking endpoint took the hit; the rest of the surface is fine.
	var cr CountResponse
	if resp := getJSON(t, ts.URL+"/api/count?q="+url.QueryEscape("//institution"), &cr); resp.StatusCode != http.StatusOK {
		t.Fatalf("count after panics = %d, want 200", resp.StatusCode)
	}
	if cr.Count != 4 {
		t.Fatalf("count after panics = %d, want 4", cr.Count)
	}

	var st Stats
	getJSON(t, ts.URL+"/api/stats", &st)
	if st.Panics != n {
		t.Fatalf("stats panics = %d, want %d", st.Panics, n)
	}
	if len(st.PanicLog) != n {
		t.Fatalf("panic log has %d records, want %d", len(st.PanicLog), n)
	}
	rec := st.PanicLog[0]
	if rec.Kind != "panic" || rec.Stage != obs.ServeEndpointStage("query") ||
		!strings.Contains(rec.Err, "injected panic") {
		t.Fatalf("unexpected panic record %+v", rec)
	}
}

// TestChaosCorruptReloadKeepsGeneration exercises every reload failure
// mode over HTTP — an empty candidate, a panicking loader, a nil
// repository, an erroring loader — and asserts none of them loses the
// serving generation or stops the server answering; a subsequent good
// reload installs gen 2 and clears the surfaced error.
func TestChaosCorruptReloadKeepsGeneration(t *testing.T) {
	var mode atomic.Int32
	s := NewServer(testRepo(t, 3, 0), Options{
		Reload: func() (*repository.Repository, error) {
			switch mode.Load() {
			case 0: // fails the snapshot checks: no documents
				return repository.New(testDTD()), nil
			case 1:
				panic("loader blew up")
			case 2:
				return nil, nil
			case 3:
				return nil, fmt.Errorf("source unreadable")
			default:
				return testRepo(t, 5, 100), nil
			}
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	wantErr := []string{"empty", "panicked", "nil", "unreadable"}
	for i, want := range wantErr {
		mode.Store(int32(i))
		resp, err := http.Post(ts.URL+"/api/reload", "", nil)
		if err != nil {
			t.Fatalf("reload %d: %v", i, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("reload %d status = %d, want 500", i, resp.StatusCode)
		}
		var st Stats
		getJSON(t, ts.URL+"/api/stats", &st)
		if st.Gen != 1 || st.Docs != 3 {
			t.Fatalf("reload %d: generation moved to %d (docs %d), want gen 1 docs 3", i, st.Gen, st.Docs)
		}
		if st.ReloadRejected != int64(i+1) {
			t.Fatalf("reload %d: rejected = %d, want %d", i, st.ReloadRejected, i+1)
		}
		if !strings.Contains(st.LastReloadErr, want) {
			t.Fatalf("reload %d: last error %q does not mention %q", i, st.LastReloadErr, want)
		}
		// Still serving the old generation between failures.
		var cr CountResponse
		getJSON(t, ts.URL+"/api/count?q="+url.QueryEscape("//institution"), &cr)
		if cr.Count != 3 {
			t.Fatalf("reload %d: count = %d, want 3 from the retained snapshot", i, cr.Count)
		}
	}

	mode.Store(4)
	resp, err := http.Post(ts.URL+"/api/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("good reload status = %d, want 200", resp.StatusCode)
	}
	var st Stats
	getJSON(t, ts.URL+"/api/stats", &st)
	if st.Gen != 2 || st.Docs != 5 || st.LastReloadErr != "" {
		t.Fatalf("after good reload: gen=%d docs=%d lastErr=%q, want gen 2, docs 5, no error",
			st.Gen, st.Docs, st.LastReloadErr)
	}
}

// TestChaosDrainNoRequestLost puts a slow request in flight on a real
// daemon listener, drains, and asserts the request completes with its full
// response while the drained daemon exits cleanly and refuses new
// connections.
func TestChaosDrainNoRequestLost(t *testing.T) {
	faults := faultinject.NewStage(faultinject.StageConfig{
		Seed:         1,
		Rate:         1,
		Kinds:        []faultinject.StageKind{faultinject.StageDelay},
		FaultsPerKey: -1,
		Delay:        300 * time.Millisecond,
		Stages:       []string{obs.ServeEndpointStage("query")},
	})
	s := NewServer(testRepo(t, 4, 0), Options{Faults: faults})
	d := NewDaemon(s, DaemonOptions{DrainTimeout: 5 * time.Second})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- d.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	type result struct {
		status int
		total  int
		err    error
	}
	inflight := make(chan result, 1)
	go func() {
		var qr QueryResponse
		resp, err := http.Get(base + "/api/query?q=" + url.QueryEscape("//institution"))
		if err != nil {
			inflight <- result{err: err}
			return
		}
		defer resp.Body.Close()
		if err := jsonDecode(resp, &qr); err != nil {
			inflight <- result{status: resp.StatusCode, err: err}
			return
		}
		inflight <- result{status: resp.StatusCode, total: qr.Total}
	}()
	waitFor(t, 2*time.Second, "the slow query to be in flight", func() bool {
		return s.Stats().Requests >= 1
	})

	if err := d.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	got := <-inflight
	if got.err != nil {
		t.Fatalf("in-flight request lost to the drain: %v", got.err)
	}
	if got.status != http.StatusOK || got.total != 4 {
		t.Fatalf("in-flight request answered status=%d total=%d, want a complete 200 with 4 results",
			got.status, got.total)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("daemon exit = %v, want nil after a clean drain", err)
	}
	if !s.Draining() {
		t.Fatal("server not marked draining after Drain")
	}
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), 200*time.Millisecond); err == nil {
		t.Fatal("listener still accepting connections after drain")
	}
}

// TestChaosMixedFaultsUnderLoad runs the full mixed workload under random
// panic/error/delay injection and background snapshot swaps: the invariant
// is zero transport-level failures (every request gets an HTTP answer)
// and a live, consistent server afterwards.
func TestChaosMixedFaultsUnderLoad(t *testing.T) {
	faults := faultinject.NewStage(faultinject.StageConfig{
		Seed: 42,
		Rate: 0.2,
		Kinds: []faultinject.StageKind{
			faultinject.StagePanic, faultinject.StageError, faultinject.StageDelay,
		},
		FaultsPerKey: -1,
		Delay:        time.Millisecond,
	})
	s := NewServer(testRepo(t, 6, 0), Options{
		MaxInFlight: 8,
		QueueWait:   20 * time.Millisecond,
		Faults:      faults,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	swapN := 0
	res, err := LoadTest(s, ts.URL, LoadOptions{
		Clients:   16,
		Duration:  600 * time.Millisecond,
		Workload:  s.DefaultWorkload(8),
		SwapEvery: 50 * time.Millisecond,
		SwapRepo: func() *repository.Repository {
			swapN++
			return testRepo(t, 6, swapN)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Injected panics and errors answer 500 (counted in Errors); what must
	// never happen is a transport failure — a connection dying because the
	// process did.
	if res.Requests == 0 {
		t.Fatal("no requests completed")
	}
	var st Stats
	getJSON(t, ts.URL+"/api/stats", &st)
	if !st.Ready {
		t.Fatalf("server not ready after chaos run: %+v", st)
	}
	if st.Gen != uint64(1+res.Swaps) {
		t.Fatalf("gen = %d after %d swaps, want %d", st.Gen, res.Swaps, 1+res.Swaps)
	}
	if faults.Injected()[faultinject.StagePanic] > 0 && st.Panics == 0 {
		t.Fatal("panics were injected but none recorded")
	}
}

// jsonDecode decodes resp's body into v (helper for goroutines that cannot
// call t.Fatal).
func jsonDecode(resp *http.Response, v any) error {
	return json.NewDecoder(resp.Body).Decode(v)
}
