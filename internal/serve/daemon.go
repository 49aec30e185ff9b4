package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"
)

// DaemonOptions parameterizes the hardened HTTP front end webrevd runs.
// The zero value applies production defaults — a bare http.Server ships
// with none of these, which is exactly the gap this type closes.
type DaemonOptions struct {
	// ReadHeaderTimeout bounds how long a connection may dribble its
	// request headers (slowloris guard; default 5s).
	ReadHeaderTimeout time.Duration
	// WriteTimeout bounds writing one response (default 30s).
	WriteTimeout time.Duration
	// IdleTimeout closes keep-alive connections idle this long
	// (default 2m).
	IdleTimeout time.Duration
	// MaxHeaderBytes caps request header size (default 1 MiB).
	MaxHeaderBytes int
	// DrainTimeout bounds the graceful drain: after BeginDrain flips
	// /readyz, in-flight requests get this long to finish before the
	// listener is torn down hard (default 10s).
	DrainTimeout time.Duration
	// OnDrained, when set, runs after a drain completes (successfully or
	// not) and before Serve returns — webrevd flushes its obs snapshot
	// here so no metrics are lost on SIGTERM.
	OnDrained func()
}

func (o *DaemonOptions) withDefaults() DaemonOptions {
	out := *o
	if out.ReadHeaderTimeout <= 0 {
		out.ReadHeaderTimeout = 5 * time.Second
	}
	if out.WriteTimeout <= 0 {
		out.WriteTimeout = 30 * time.Second
	}
	if out.IdleTimeout <= 0 {
		out.IdleTimeout = 2 * time.Minute
	}
	if out.MaxHeaderBytes <= 0 {
		out.MaxHeaderBytes = 1 << 20
	}
	if out.DrainTimeout <= 0 {
		out.DrainTimeout = 10 * time.Second
	}
	return out
}

// Daemon couples a Server with a hardened http.Server and a graceful
// lifecycle: Serve blocks until Drain (typically wired to SIGTERM/SIGINT)
// stops the listener, waits for every in-flight request under
// DrainTimeout, runs OnDrained, and lets Serve return nil — so a drained
// daemon exits 0 with no request lost.
type Daemon struct {
	server *Server
	opts   DaemonOptions
	hs     *http.Server

	drainOnce sync.Once
	drained   chan struct{} // closed when the drain sequence finishes
	drainErr  error
}

// NewDaemon wraps s and its handler surface in a hardened listener
// configuration.
func NewDaemon(s *Server, opts DaemonOptions) *Daemon {
	opts = opts.withDefaults()
	d := &Daemon{
		server:  s,
		opts:    opts,
		drained: make(chan struct{}),
	}
	d.hs = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: opts.ReadHeaderTimeout,
		WriteTimeout:      opts.WriteTimeout,
		IdleTimeout:       opts.IdleTimeout,
		MaxHeaderBytes:    opts.MaxHeaderBytes,
	}
	return d
}

// Serve accepts connections on ln until Drain is called, then returns the
// drain's outcome: nil when every in-flight request finished inside
// DrainTimeout, the shutdown error otherwise. A listener failure before
// any drain returns that failure directly.
func (d *Daemon) Serve(ln net.Listener) error {
	err := d.hs.Serve(ln)
	if err != nil && err != http.ErrServerClosed {
		return err
	}
	// ErrServerClosed means a drain is in progress; report its outcome.
	<-d.drained
	return d.drainErr
}

// Drain gracefully shuts the daemon down: readiness flips to 503 first
// (load balancers stop sending traffic), the listener stops accepting,
// and in-flight requests are given until ctx (capped by DrainTimeout) to
// finish. Idempotent; concurrent calls share the first drain's outcome.
func (d *Daemon) Drain(ctx context.Context) error {
	d.drainOnce.Do(func() {
		defer close(d.drained)
		d.server.BeginDrain()
		dctx, cancel := context.WithTimeout(ctx, d.opts.DrainTimeout)
		defer cancel()
		if err := d.hs.Shutdown(dctx); err != nil {
			d.drainErr = fmt.Errorf("serve: drain: %w", err)
		}
		if d.opts.OnDrained != nil {
			d.opts.OnDrained()
		}
	})
	<-d.drained
	return d.drainErr
}
