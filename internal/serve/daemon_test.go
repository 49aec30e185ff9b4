package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestDaemonAppliesListenerHardening asserts the configured (and
// defaulted) timeouts land on the underlying http.Server — the settings a
// bare http.Serve never gets.
func TestDaemonAppliesListenerHardening(t *testing.T) {
	s := NewServer(testRepo(t, 1, 0), Options{})
	d := NewDaemon(s, DaemonOptions{
		ReadHeaderTimeout: 7 * time.Second,
		MaxHeaderBytes:    4096,
	})
	hs := d.hs
	if hs.ReadHeaderTimeout != 7*time.Second {
		t.Errorf("ReadHeaderTimeout = %v, want 7s", hs.ReadHeaderTimeout)
	}
	if hs.MaxHeaderBytes != 4096 {
		t.Errorf("MaxHeaderBytes = %d, want 4096", hs.MaxHeaderBytes)
	}
	// Unset fields get the production defaults, not Go's zero (= unlimited).
	if hs.WriteTimeout != 30*time.Second {
		t.Errorf("default WriteTimeout = %v, want 30s", hs.WriteTimeout)
	}
	if hs.IdleTimeout != 2*time.Minute {
		t.Errorf("default IdleTimeout = %v, want 2m", hs.IdleTimeout)
	}
}

// TestDaemonDrainIdempotent drains a daemon twice (concurrently with
// nothing in flight) and asserts both calls agree, the server is marked
// draining, and OnDrained ran exactly once.
func TestDaemonDrainIdempotent(t *testing.T) {
	s := NewServer(testRepo(t, 1, 0), Options{})
	drained := 0
	d := NewDaemon(s, DaemonOptions{OnDrained: func() { drained++ }})
	if err := d.Drain(context.Background()); err != nil {
		t.Fatalf("first drain: %v", err)
	}
	if err := d.Drain(context.Background()); err != nil {
		t.Fatalf("second drain: %v", err)
	}
	if drained != 1 {
		t.Fatalf("OnDrained ran %d times, want 1", drained)
	}
	if !s.Draining() || s.Ready() {
		t.Fatalf("after drain: draining=%v ready=%v, want draining and not ready", s.Draining(), s.Ready())
	}
}

// TestReadyzLifecycle walks /healthz and /readyz through the three server
// states: pending (no snapshot yet), serving, draining. Liveness holds
// throughout; readiness is 503 at both ends.
func TestReadyzLifecycle(t *testing.T) {
	s := NewServer(nil, Options{}) // pending: follow mode before the source exists
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// Pending: live but not ready, and the API refuses with 503 rather
	// than panicking on the missing snapshot.
	if got := status("/healthz"); got != http.StatusOK {
		t.Fatalf("pending /healthz = %d, want 200", got)
	}
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("pending /readyz = %d, want 503", got)
	}
	if got := status("/api/paths"); got != http.StatusServiceUnavailable {
		t.Fatalf("pending /api/paths = %d, want 503", got)
	}
	if got := status("/api/stats"); got != http.StatusOK {
		t.Fatalf("pending /api/stats = %d, want 200 (stats work before the first snapshot)", got)
	}

	// First snapshot: ready.
	s.Swap(testRepo(t, 2, 0))
	var ready map[string]any
	if resp := getJSON(t, ts.URL+"/readyz", &ready); resp.StatusCode != http.StatusOK {
		t.Fatalf("serving /readyz = %d, want 200", resp.StatusCode)
	}
	if ready["status"] != "ready" {
		t.Fatalf("/readyz body = %v, want status ready", ready)
	}

	// Draining: readiness drops first so load balancers stop routing, but
	// liveness and the API keep answering stragglers.
	s.BeginDrain()
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("draining /readyz = %d, want 503", got)
	}
	if got := status("/healthz"); got != http.StatusOK {
		t.Fatalf("draining /healthz = %d, want 200", got)
	}
	if got := status("/api/paths"); got != http.StatusOK {
		t.Fatalf("draining /api/paths = %d, want 200 for stragglers", got)
	}
}
