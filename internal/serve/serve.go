// Package serve implements webrevd's serving layer: an immutable,
// read-optimized snapshot of an XML repository (Index) behind an
// atomic.Pointer swap, so heavy concurrent read traffic never takes a lock
// and a background rebuild or reload replaces the whole dataset without
// dropping a request — the bayes.Frozen pattern applied to the repository
// itself.
//
// Every request loads the current snapshot once and answers entirely from
// it; a swap installs the next snapshot for subsequent requests while
// in-flight ones finish on the old generation. Two caches cut repeated
// work: a compiled-query cache on the Server (query compilation is
// data-independent, so it survives swaps) and a rendered-response cache on
// each Index (results depend on the data, so the cache dies with its
// snapshot — swap is the invalidation).
//
// Around that read path sits an overload-and-failure hardening layer (see
// ARCHITECTURE.md, "Overload & drain"): admission control sheds excess
// load with 503 + Retry-After instead of queueing unboundedly, every
// request carries a deadline that aborts slow scans mid-walk, a recover
// boundary converts handler panics into structured 500s, reloads validate
// the candidate snapshot and keep the last good generation on any failure,
// and Daemon drains in-flight requests before exit.
package serve

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"webrev/internal/dtd"
	"webrev/internal/faultinject"
	"webrev/internal/memo"
	"webrev/internal/obs"
	"webrev/internal/pathindex"
	"webrev/internal/query"
	"webrev/internal/repository"
	"webrev/internal/schema"
)

// maxQueryLen bounds the accepted query-expression length; longer
// expressions are rejected 400 before compilation touches them.
const maxQueryLen = 4096

// Index is one immutable serving snapshot: the repository's documents and
// DTD, the frozen path index, and this generation's rendered-response
// cache. All fields are read-only after construction; any number of
// requests may share an Index without synchronization.
type Index struct {
	gen     uint64
	repo    *repository.Repository
	names   []string
	byName  map[string]int
	frozen  *pathindex.Frozen
	dtdText string
	results *memo.Cache[[]byte] // rendered query responses; dies with the snapshot
}

// Gen returns the snapshot's generation number (1 for the initial load,
// incremented by every swap).
func (ix *Index) Gen() uint64 { return ix.gen }

// Docs returns the number of documents in the snapshot.
func (ix *Index) Docs() int { return len(ix.names) }

// Frozen returns the snapshot's read-only path index.
func (ix *Index) Frozen() *pathindex.Frozen { return ix.frozen }

// Repo returns the repository the snapshot serves. The repository is
// immutable once inside an Index; callers may share it with another
// server (e.g. the bench harness's overload pass).
func (ix *Index) Repo() *repository.Repository { return ix.repo }

// Cache bounds: the compiled-query cache survives snapshot swaps; each
// snapshot's rendered-response cache is invalidated wholesale by a swap.
const (
	queryCacheSize  = 1024
	resultCacheSize = 4096
)

// newIndex builds a snapshot of repo, or fails when its path index cannot
// be built because a document does not read or decode.
func newIndex(repo *repository.Repository) (*Index, error) {
	pix := repo.Index()
	if pix == nil {
		return nil, fmt.Errorf("serve: snapshot rejected: a document does not read or decode")
	}
	names := repo.Names()
	byName := make(map[string]int, len(names))
	for i, n := range names {
		byName[n] = i
	}
	return &Index{
		repo:    repo,
		names:   names,
		byName:  byName,
		frozen:  pix.Freeze(),
		dtdText: repo.DTD().Render(),
		results: memo.New[[]byte](resultCacheSize),
	}, nil
}

// Options parameterizes NewServer. The zero value serves with defaults:
// no admission limit, a 30s request deadline, and no reload source.
type Options struct {
	// Tracer records serve-stage spans and counters; nil means the no-op
	// tracer.
	Tracer obs.Tracer
	// MaxResults caps the matches rendered for one query request; Count
	// remains exact beyond it (default 1000).
	MaxResults int
	// MaxInFlight bounds the /api requests executing concurrently; excess
	// requests wait briefly in a bounded queue and are then shed with a
	// 503 + Retry-After. 0 disables admission control.
	MaxInFlight int
	// MaxQueue bounds the requests waiting for an in-flight slot (default
	// MaxInFlight when admission is enabled; negative means no queue).
	MaxQueue int
	// QueueWait caps how long a queued request waits for a slot before
	// being shed (default 100ms).
	QueueWait time.Duration
	// RequestTimeout is the default per-request deadline propagated via
	// context through query evaluation (default 30s; negative disables).
	RequestTimeout time.Duration
	// MaxRequestTimeout caps the ?timeout= override a client may request
	// (default 1m).
	MaxRequestTimeout time.Duration
	// RetryAfter is the Retry-After value, in seconds, advertised on shed
	// responses (default 1).
	RetryAfter int
	// Faults, when set, fires a seeded fault injector at the top of every
	// /api request (stage obs.ServeEndpointStage(endpoint), key the request
	// URI) — the chaos harness's hook for handler panics, errors and
	// delays. Nil in production.
	Faults *faultinject.Stage
	// Reload, when set, backs POST /api/reload: it produces the next
	// repository (reloading a directory, rebuilding a corpus) and the
	// server swaps to it atomically — but only after the candidate passes
	// ValidateSnapshot; a failing, panicking, or corrupt reload leaves the
	// current generation serving.
	Reload func() (*repository.Repository, error)
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.MaxResults <= 0 {
		out.MaxResults = 1000
	}
	if out.MaxQueue == 0 {
		out.MaxQueue = out.MaxInFlight
	} else if out.MaxQueue < 0 {
		out.MaxQueue = 0
	}
	if out.QueueWait <= 0 {
		out.QueueWait = 100 * time.Millisecond
	}
	if out.RequestTimeout == 0 {
		out.RequestTimeout = 30 * time.Second
	}
	if out.MaxRequestTimeout <= 0 {
		out.MaxRequestTimeout = time.Minute
	}
	if out.RetryAfter <= 0 {
		out.RetryAfter = 1
	}
	return out
}

// endpointNames is the fixed set of endpoint labels the per-endpoint
// latency histograms track.
var endpointNames = []string{
	"healthz", "readyz", "query", "count", "paths", "docs", "doc",
	"dtd", "concept", "stats", "drift", "reload",
}

// Server answers repository queries over HTTP from the current snapshot.
// Create with NewServer; swap in new data with Swap or Reload. Server is
// safe for concurrent use — the handlers are read-only against whichever
// snapshot they load first.
type Server struct {
	cur     atomic.Pointer[Index]
	gen     atomic.Uint64
	drift   atomic.Pointer[schema.Drift]
	queries *memo.Cache[*query.Query]
	tr      obs.Tracer
	opts    Options
	mux     *http.ServeMux
	adm     *admission                // nil when admission control is off
	hist    map[string]*obs.Histogram // per-endpoint latency; fixed keys

	reloadMu sync.Mutex // serializes Reload; Swap itself is lock-free
	draining atomic.Bool

	// Serving totals, mirrored to the tracer's counters when one is
	// attached; kept as atomics so /api/stats never needs the collector.
	requests       atomic.Int64
	errors         atomic.Int64
	queryEvals     atomic.Int64
	resultHits     atomic.Int64
	compileHits    atomic.Int64
	swaps          atomic.Int64
	shed           atomic.Int64
	timeouts       atomic.Int64
	panics         atomic.Int64
	reloadRejected atomic.Int64

	lastReloadErr atomic.Pointer[string]

	panicMu  sync.Mutex
	panicLog []PanicRecord // most recent panicLogCap records
}

// panicLogCap bounds the panic records retained for /api/stats.
const panicLogCap = 8

// NewServer builds a server over the initial repository snapshot. A nil
// repo starts the server pending: /healthz answers (the process is live)
// but /readyz and every /api endpoint return 503 until the first valid
// snapshot is installed via Swap, Reload, or Follow — the boot shape of
// follow mode, where the reload source may not exist yet. A repo whose
// documents do not read starts it pending too, counted as a rejected
// reload.
func NewServer(repo *repository.Repository, opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		queries: memo.New[*query.Query](queryCacheSize),
		tr:      obs.OrNop(opts.Tracer),
		opts:    opts,
		hist:    make(map[string]*obs.Histogram, len(endpointNames)),
	}
	for _, name := range endpointNames {
		s.hist[name] = &obs.Histogram{}
	}
	if opts.MaxInFlight > 0 {
		s.adm = newAdmission(opts.MaxInFlight, opts.MaxQueue, opts.QueueWait)
	}
	if repo != nil {
		s.install(repo)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/healthz", s.wrap("healthz", false, s.handleHealthz))
	s.mux.HandleFunc("/readyz", s.wrap("readyz", false, s.handleReadyz))
	s.mux.HandleFunc("/api/query", s.wrap("query", true, s.handleQuery))
	s.mux.HandleFunc("/api/count", s.wrap("count", true, s.handleCount))
	s.mux.HandleFunc("/api/paths", s.wrap("paths", true, s.handlePaths))
	s.mux.HandleFunc("/api/docs", s.wrap("docs", true, s.handleDocs))
	s.mux.HandleFunc("/api/doc", s.wrap("doc", true, s.handleDoc))
	s.mux.HandleFunc("/api/dtd", s.wrap("dtd", true, s.handleDTD))
	s.mux.HandleFunc("/api/concept", s.wrap("concept", true, s.handleConcept))
	s.mux.HandleFunc("/api/stats", s.wrap("stats", true, s.handleStats))
	s.mux.HandleFunc("/api/drift", s.wrap("drift", true, s.handleDrift))
	s.mux.HandleFunc("/api/reload", s.wrap("reload", true, s.handleReload))
	return s
}

// SetDrift publishes the latest schema-drift report; GET /api/drift serves
// it. The watch loop calls this after every cycle, typically alongside a
// Swap of the cycle's repository. A nil report clears the endpoint back to
// 404.
func (s *Server) SetDrift(d *schema.Drift) { s.drift.Store(d) }

// Drift returns the currently published drift report, or nil.
func (s *Server) Drift() *schema.Drift { return s.drift.Load() }

// handleDrift answers GET /api/drift with the latest published report.
func (s *Server) handleDrift(w http.ResponseWriter, _ *http.Request) {
	d := s.drift.Load()
	if d == nil {
		s.httpError(w, http.StatusNotFound, "no drift report published")
		return
	}
	writeJSON(w, d)
}

// install builds the next-generation snapshot and publishes it, returning
// the serving generation. A snapshot whose index cannot be built is
// rejected like a failed reload, and the current generation keeps serving.
func (s *Server) install(repo *repository.Repository) uint64 {
	ix, err := newIndex(repo)
	if err != nil {
		s.rejectReload(err)
		if cur := s.cur.Load(); cur != nil {
			return cur.gen
		}
		return 0
	}
	ix.gen = s.gen.Add(1)
	s.cur.Store(ix)
	s.swaps.Add(1)
	if s.tr.Enabled() {
		s.tr.Add(obs.CtrServeSwaps, 1)
	}
	return ix.gen
}

// Swap atomically replaces the serving snapshot with one built from repo
// and returns the new generation. Readers in flight keep the snapshot they
// started with; no request is blocked or dropped. Swap trusts its caller —
// untrusted sources (reload, follow mode) go through Reload or TrySwap,
// which validate first — but a repo whose documents do not read is still
// rejected and the current generation returned.
func (s *Server) Swap(repo *repository.Repository) uint64 {
	sp := s.tr.StartSpan(obs.StageServeSwap)
	defer sp.End()
	return s.install(repo)
}

// ValidateSnapshot decides whether a candidate repository is fit to serve:
// non-nil, non-empty, with a parseable DTD and a non-empty path index
// built from documents that all read and decode. A reload source
// mid-write or corrupt on disk fails here and the server keeps answering
// from the last good generation.
func ValidateSnapshot(repo *repository.Repository) error {
	if repo == nil {
		return fmt.Errorf("candidate snapshot is nil")
	}
	if repo.DTD() == nil {
		return fmt.Errorf("candidate snapshot has no DTD")
	}
	if _, err := dtd.Parse(repo.DTD().Render()); err != nil {
		return fmt.Errorf("candidate DTD does not re-parse: %w", err)
	}
	if repo.Len() == 0 {
		return fmt.Errorf("candidate snapshot is empty")
	}
	// Counting the root elements builds the path index the install
	// freezes, so a document that does not read or decode fails here.
	n, err := repo.Count("/*")
	if err != nil {
		return fmt.Errorf("candidate snapshot: %w", err)
	}
	if n == 0 {
		return fmt.Errorf("candidate snapshot has an empty path index")
	}
	return nil
}

// TrySwap validates the candidate and swaps to it; on validation failure
// the current generation keeps serving, the rejection is counted
// (serve.reload_rejected) and surfaced on /api/stats, and the error is
// returned. This is the swap follow mode and /api/reload share.
func (s *Server) TrySwap(repo *repository.Repository) (uint64, error) {
	if err := ValidateSnapshot(repo); err != nil {
		s.rejectReload(err)
		return 0, err
	}
	gen := s.Swap(repo)
	s.clearReloadErr()
	return gen, nil
}

// safeReload invokes the configured reload source with a recover boundary:
// a panicking loader becomes an error, never a dead process.
func safeReload(load func() (*repository.Repository, error)) (repo *repository.Repository, err error) {
	defer func() {
		if v := recover(); v != nil {
			repo, err = nil, fmt.Errorf("reload source panicked: %v", v)
		}
	}()
	return load()
}

// rejectReload records one rejected reload: counter, tracer, and the error
// text /api/stats surfaces until a reload succeeds.
func (s *Server) rejectReload(err error) {
	s.reloadRejected.Add(1)
	if s.tr.Enabled() {
		s.tr.Add(obs.CtrServeReloadRejected, 1)
	}
	msg := err.Error()
	s.lastReloadErr.Store(&msg)
}

func (s *Server) clearReloadErr() { s.lastReloadErr.Store(nil) }

// LastReloadError returns the most recent reload failure, or "" when the
// last reload succeeded (or none was attempted).
func (s *Server) LastReloadError() string {
	if p := s.lastReloadErr.Load(); p != nil {
		return *p
	}
	return ""
}

// Reload produces the next repository via Options.Reload, validates it,
// and swaps to it. A loader error or panic, or a candidate that fails
// ValidateSnapshot, leaves the current generation serving and is recorded
// as a rejected reload. Concurrent reloads are serialized; reads are never
// blocked.
func (s *Server) Reload() (uint64, error) {
	if s.opts.Reload == nil {
		return 0, fmt.Errorf("serve: no reload source configured")
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	repo, err := safeReload(s.opts.Reload)
	if err != nil {
		err = fmt.Errorf("serve: reload: %w", err)
		s.rejectReload(err)
		return 0, err
	}
	gen, err := s.TrySwap(repo)
	if err != nil {
		return 0, fmt.Errorf("serve: reload: %w", err)
	}
	return gen, nil
}

// Snapshot returns the current serving snapshot, or nil when none has been
// installed yet (a pending follow-mode server).
func (s *Server) Snapshot() *Index { return s.cur.Load() }

// Ready reports whether the server has a snapshot installed and is not
// draining — the /readyz condition.
func (s *Server) Ready() bool { return s.cur.Load() != nil && !s.draining.Load() }

// BeginDrain marks the server draining: /readyz flips to 503 so load
// balancers stop routing new traffic, while in-flight and straggler
// requests still answer normally. Called by Daemon on SIGTERM; idempotent.
func (s *Server) BeginDrain() {
	if s.draining.CompareAndSwap(false, true) && s.tr.Enabled() {
		s.tr.Add(obs.CtrServeDrains, 1)
	}
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Handler returns the HTTP surface: the /api routes plus /healthz and
// /readyz.
func (s *Server) Handler() http.Handler { return s.mux }

// Mux exposes the underlying mux so callers can mount extra routes (the
// obs debug surface) on the same listener.
func (s *Server) Mux() *http.ServeMux { return s.mux }

// snapshot loads the current snapshot for a handler, answering 503 (and
// returning nil) when none is installed yet.
func (s *Server) snapshot(w http.ResponseWriter) *Index {
	ix := s.cur.Load()
	if ix == nil {
		s.httpError(w, http.StatusServiceUnavailable, "no snapshot installed yet")
	}
	return ix
}

// requestTimeout resolves the deadline for one request: the server default
// overridden by a well-formed ?timeout= duration, capped at
// MaxRequestTimeout. A malformed or non-positive override is an error the
// handler answers 400.
func (s *Server) requestTimeout(r *http.Request) (time.Duration, error) {
	d := s.opts.RequestTimeout
	if d < 0 {
		d = 0
	}
	if raw := r.URL.Query().Get("timeout"); raw != "" {
		td, err := time.ParseDuration(raw)
		if err != nil || td <= 0 {
			return 0, fmt.Errorf("bad timeout %q (want a positive Go duration like 250ms)", raw)
		}
		d = td
	}
	if d > s.opts.MaxRequestTimeout {
		d = s.opts.MaxRequestTimeout
	}
	return d, nil
}

// wrap is the per-request envelope, outermost first: panic recovery (a
// handler panic becomes a structured 500, never a dead process), the
// request counter and latency span/histogram, admission control for /api
// endpoints, deadline propagation, and the chaos harness's fault injector.
func (s *Server) wrap(endpoint string, admit bool, h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	hist := s.hist[endpoint]
	stage := obs.ServeEndpointStage(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		sp := s.tr.StartSpan(obs.StageServe)
		s.requests.Add(1)
		if s.tr.Enabled() {
			s.tr.Add(obs.CtrServeRequests, 1)
		}
		sw := &statusWriter{ResponseWriter: w}
		uri := r.URL.RequestURI()
		t0 := time.Now()
		defer func() {
			if v := recover(); v != nil {
				s.recordPanic(stage, uri, v, sw)
			}
			d := time.Since(t0)
			hist.Observe(d)
			if s.tr.Enabled() {
				s.tr.Observe(stage, d)
			}
			sp.End()
		}()
		if admit {
			if s.adm != nil {
				if !s.adm.acquire(r.Context()) {
					s.shedRequest(sw)
					return
				}
				defer s.release()
				s.noteInFlight()
			}
			d, err := s.requestTimeout(r)
			if err != nil {
				s.httpError(sw, http.StatusBadRequest, "%v", err)
				return
			}
			if d > 0 {
				ctx, cancel := context.WithTimeout(r.Context(), d)
				defer cancel()
				r = r.WithContext(ctx)
			}
			if s.opts.Faults != nil {
				if err := s.opts.Faults.Fire(stage, uri); err != nil {
					s.httpError(sw, http.StatusInternalServerError, "%v", err)
					return
				}
			}
		}
		h(sw, r)
	}
}

// noteInFlight mirrors the admission gauges into the tracer after a
// successful acquire.
func (s *Server) noteInFlight() {
	if s.adm == nil || !s.tr.Enabled() {
		return
	}
	cur := s.adm.inflight.Load()
	s.tr.Set(obs.GaugeServeInFlight, cur)
	s.tr.Set(obs.GaugeServeQueueDepth, s.adm.queued.Load())
	if c, ok := s.tr.(*obs.Collector); ok {
		c.SetMax(obs.GaugeServeInFlightPeak, cur)
	}
}

// release returns this request's admission slot.
func (s *Server) release() {
	s.adm.release()
	if s.tr.Enabled() {
		s.tr.Set(obs.GaugeServeInFlight, s.adm.inflight.Load())
		s.tr.Set(obs.GaugeServeQueueDepth, s.adm.queued.Load())
	}
}

// shedRequest answers an unadmitted request: 503 with a Retry-After so
// well-behaved clients back off, counted separately from handler errors.
func (s *Server) shedRequest(w http.ResponseWriter) {
	s.shed.Add(1)
	if s.tr.Enabled() {
		s.tr.Add(obs.CtrServeShed, 1)
	}
	w.Header().Set("Retry-After", strconv.Itoa(s.opts.RetryAfter))
	s.httpError(w, http.StatusServiceUnavailable, "overloaded, retry after %ds", s.opts.RetryAfter)
}

// timeoutError answers a request whose propagated deadline fired during
// evaluation.
func (s *Server) timeoutError(w http.ResponseWriter, err error) {
	s.timeouts.Add(1)
	if s.tr.Enabled() {
		s.tr.Add(obs.CtrServeTimeouts, 1)
	}
	s.httpError(w, http.StatusGatewayTimeout, "request deadline exceeded: %v", err)
}

// PanicRecord is the structured trace of one recovered handler panic — the
// serving layer's mirror of the build pipeline's per-document
// FailureRecord: which endpoint, which request, what blew up, and where.
type PanicRecord struct {
	// Stage is the per-endpoint obs stage name
	// (obs.ServeEndpointStage(endpoint)).
	Stage string `json:"stage"`
	// URL is the request URI that triggered the panic.
	URL string `json:"url"`
	// Kind is always "panic"; the field keeps the record shape aligned
	// with core.FailureRecord.
	Kind string `json:"kind"`
	// Err is the panic value.
	Err string `json:"err"`
	// Stack is the goroutine stack at the recovery point.
	Stack string `json:"stack,omitempty"`
}

// recordPanic converts a recovered handler panic into a 500 (when the
// response has not started), a counter, and a retained PanicRecord.
func (s *Server) recordPanic(stage, uri string, v any, sw *statusWriter) {
	s.panics.Add(1)
	if s.tr.Enabled() {
		s.tr.Add(obs.CtrServePanics, 1)
	}
	rec := PanicRecord{
		Stage: stage,
		URL:   uri,
		Kind:  "panic",
		Err:   fmt.Sprint(v),
		Stack: string(debug.Stack()),
	}
	s.panicMu.Lock()
	s.panicLog = append(s.panicLog, rec)
	if len(s.panicLog) > panicLogCap {
		s.panicLog = s.panicLog[len(s.panicLog)-panicLogCap:]
	}
	s.panicMu.Unlock()
	if !sw.wrote {
		s.httpError(sw, http.StatusInternalServerError, "internal error: %v", v)
	}
}

// Panics returns a copy of the retained panic records, newest last.
func (s *Server) Panics() []PanicRecord {
	s.panicMu.Lock()
	defer s.panicMu.Unlock()
	out := make([]PanicRecord, len(s.panicLog))
	copy(out, s.panicLog)
	// Stacks are for /api/stats consumers; trim trailing newline noise.
	for i := range out {
		out[i].Stack = strings.TrimRight(out[i].Stack, "\n")
	}
	return out
}

// statusWriter tracks whether a handler already started its response, so
// the recover boundary knows when a 500 can still be written, and what
// status was sent.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.wrote, w.status = true, code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.wrote, w.status = true, http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (s *Server) httpError(w http.ResponseWriter, code int, format string, args ...any) {
	s.errors.Add(1)
	if s.tr.Enabled() {
		s.tr.Add(obs.CtrServeErrors, 1)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// compile returns the compiled form of expr, consulting the
// swap-surviving query cache.
func (s *Server) compile(expr string) (*query.Query, error) {
	if len(expr) > maxQueryLen {
		return nil, fmt.Errorf("query too long: %d bytes (limit %d)", len(expr), maxQueryLen)
	}
	if q, ok := s.queries.Get(expr); ok {
		s.compileHits.Add(1)
		if s.tr.Enabled() {
			s.tr.Add(obs.CtrServeCompileHits, 1)
		}
		return q, nil
	}
	q, err := query.Compile(expr)
	if err != nil {
		return nil, err
	}
	s.queries.Add(strings.Clone(expr), q)
	return q, nil
}

// Match is one rendered query result.
type Match struct {
	Doc  string `json:"doc"`
	Path string `json:"path"`
	Val  string `json:"val,omitempty"`
	Pos  int    `json:"pos"`
}

// QueryResponse is the /api/query payload.
type QueryResponse struct {
	Query     string  `json:"query"`
	Gen       uint64  `json:"gen"`
	Total     int     `json:"total"`
	Truncated bool    `json:"truncated,omitempty"`
	Results   []Match `json:"results"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	expr := r.URL.Query().Get("q")
	if expr == "" {
		s.httpError(w, http.StatusBadRequest, "missing q parameter")
		return
	}
	limit := s.opts.MaxResults
	if l := r.URL.Query().Get("limit"); l != "" {
		n, err := strconv.Atoi(l)
		if err != nil || n < 0 {
			s.httpError(w, http.StatusBadRequest, "bad limit %q", l)
			return
		}
		if n < limit {
			limit = n
		}
	}
	ix := s.snapshot(w)
	if ix == nil {
		return
	}
	key := "q\x00" + expr + "\x00" + strconv.Itoa(limit)
	if body, ok := ix.results.Get(key); ok {
		s.resultHits.Add(1)
		if s.tr.Enabled() {
			s.tr.Add(obs.CtrServeResultHits, 1)
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
		return
	}
	q, err := s.compile(expr)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.countQueryEval()
	ctx := r.Context()
	resp := QueryResponse{Query: expr, Gen: ix.gen, Results: []Match{}}
	err = q.EachContext(ctx, ix.frozen, func(path string, ref pathindex.Ref) bool {
		if len(resp.Results) >= limit {
			resp.Truncated = true
			return false
		}
		resp.Results = append(resp.Results, Match{
			Doc:  ix.names[ref.Doc],
			Path: path,
			Val:  ref.Val,
			Pos:  ref.Pos,
		})
		return true
	})
	if err != nil {
		s.timeoutError(w, err)
		return
	}
	if resp.Truncated {
		// The counting path is allocation-free, so an exact total stays
		// cheap even when rendering is capped.
		if resp.Total, err = q.CountContext(ctx, ix.frozen); err != nil {
			s.timeoutError(w, err)
			return
		}
	} else {
		resp.Total = len(resp.Results)
	}
	body, err := json.Marshal(&resp)
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	body = append(body, '\n')
	ix.results.Add(key, body)
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

func (s *Server) countQueryEval() {
	s.queryEvals.Add(1)
	if s.tr.Enabled() {
		s.tr.Add(obs.CtrServeQueries, 1)
	}
}

// CountResponse is the /api/count payload.
type CountResponse struct {
	Query string `json:"query"`
	Gen   uint64 `json:"gen"`
	Count int    `json:"count"`
}

func (s *Server) handleCount(w http.ResponseWriter, r *http.Request) {
	expr := r.URL.Query().Get("q")
	if expr == "" {
		s.httpError(w, http.StatusBadRequest, "missing q parameter")
		return
	}
	q, err := s.compile(expr)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ix := s.snapshot(w)
	if ix == nil {
		return
	}
	s.countQueryEval()
	// Query.Count never materializes the matches — the endpoint stays
	// allocation-free however many nodes the expression touches.
	n, err := q.CountContext(r.Context(), ix.frozen)
	if err != nil {
		s.timeoutError(w, err)
		return
	}
	writeJSON(w, CountResponse{Query: expr, Gen: ix.gen, Count: n})
}

// PathInfo is one row of the /api/paths payload.
type PathInfo struct {
	Path        string  `json:"path"`
	Docs        int     `json:"docs"`
	Occurrences int     `json:"occurrences"`
	AvgPosition float64 `json:"avg_position"`
}

func (s *Server) handlePaths(w http.ResponseWriter, _ *http.Request) {
	ix := s.snapshot(w)
	if ix == nil {
		return
	}
	paths := ix.frozen.Paths()
	out := make([]PathInfo, 0, len(paths))
	for _, p := range paths {
		avg, _ := ix.frozen.AvgPosition(p)
		out = append(out, PathInfo{
			Path:        p,
			Docs:        ix.frozen.DocFrequency(p),
			Occurrences: len(ix.frozen.Lookup(p)),
			AvgPosition: avg,
		})
	}
	writeJSON(w, map[string]any{"gen": ix.gen, "paths": out})
}

func (s *Server) handleDocs(w http.ResponseWriter, _ *http.Request) {
	ix := s.snapshot(w)
	if ix == nil {
		return
	}
	writeJSON(w, map[string]any{"gen": ix.gen, "count": len(ix.names), "names": ix.names})
}

func (s *Server) handleDoc(w http.ResponseWriter, r *http.Request) {
	ix := s.snapshot(w)
	if ix == nil {
		return
	}
	var i int
	switch {
	case r.URL.Query().Get("name") != "":
		name := r.URL.Query().Get("name")
		idx, ok := ix.byName[name]
		if !ok {
			s.httpError(w, http.StatusNotFound, "no document named %q", name)
			return
		}
		i = idx
	case r.URL.Query().Get("i") != "":
		n, err := strconv.Atoi(r.URL.Query().Get("i"))
		if err != nil || n < 0 || n >= len(ix.names) {
			s.httpError(w, http.StatusNotFound, "document index out of range")
			return
		}
		i = n
	default:
		s.httpError(w, http.StatusBadRequest, "missing name or i parameter")
		return
	}
	// The store's canonical bytes are exactly xmlout.Marshal of the tree,
	// so a disk-backed snapshot serves them without a decode.
	xml, err := ix.repo.Store().XML(i)
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, "document %d: %v", i, err)
		return
	}
	w.Header().Set("Content-Type", "application/xml")
	w.Header().Set("X-Webrev-Doc", ix.names[i])
	w.Write(xml)
}

func (s *Server) handleDTD(w http.ResponseWriter, _ *http.Request) {
	ix := s.snapshot(w)
	if ix == nil {
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, ix.dtdText)
}

// Instance is one distinct value of a concept in the /api/concept payload.
type Instance struct {
	Value string `json:"value"`
	Count int    `json:"count"`
	Docs  int    `json:"docs"`
}

// ConceptResponse is the /api/concept payload: the concept/instance view
// of the repository (paper §2's concept vocabulary served back).
type ConceptResponse struct {
	Concept   string     `json:"concept"`
	Gen       uint64     `json:"gen"`
	Total     int        `json:"total"`
	Instances []Instance `json:"instances"`
}

func (s *Server) handleConcept(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" || strings.ContainsAny(name, "/[]* \t") {
		s.httpError(w, http.StatusBadRequest, "missing or malformed concept name")
		return
	}
	expr := "//" + name
	if val := r.URL.Query().Get("val"); val != "" {
		op := "="
		if r.URL.Query().Get("contains") != "" {
			op = "~"
		}
		expr += "[@val" + op + quoteValue(val) + "]"
	}
	q, err := s.compile(expr)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ix := s.snapshot(w)
	if ix == nil {
		return
	}
	s.countQueryEval()
	// One (val, doc) pair per match, sorted: each value's matches are then
	// one run, and its documents ascend within the run, so counting them
	// needs no map. A concept can live under several label paths, so the
	// matches alone are not in document order.
	var pairs []valDoc
	err = q.EachContext(r.Context(), ix.frozen, func(_ string, ref pathindex.Ref) bool {
		pairs = append(pairs, valDoc{ref.Val, ref.Doc})
		return true
	})
	if err != nil {
		s.timeoutError(w, err)
		return
	}
	slices.SortFunc(pairs, func(a, b valDoc) int {
		if c := strings.Compare(a.val, b.val); c != 0 {
			return c
		}
		return cmp.Compare(a.doc, b.doc)
	})
	resp := ConceptResponse{Concept: name, Gen: ix.gen, Total: len(pairs), Instances: []Instance{}}
	for i := 0; i < len(pairs) && len(resp.Instances) < s.opts.MaxResults; {
		inst := Instance{Value: pairs[i].val}
		for lastDoc := -1; i < len(pairs) && pairs[i].val == inst.Value; i++ {
			inst.Count++
			if pairs[i].doc != lastDoc {
				inst.Docs++
				lastDoc = pairs[i].doc
			}
		}
		resp.Instances = append(resp.Instances, inst)
	}
	writeJSON(w, resp)
}

// valDoc is one /api/concept match: its val and its document.
type valDoc struct {
	val string
	doc int
}

// quoteValue renders v as a query-language string literal.
func quoteValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return `"` + v + `"`
}

// Stats is the /api/stats payload.
type Stats struct {
	Gen      uint64 `json:"gen"`
	Docs     int    `json:"docs"`
	Paths    int    `json:"paths"`
	Ready    bool   `json:"ready"`
	Draining bool   `json:"draining"`

	Requests    int64 `json:"requests"`
	Errors      int64 `json:"errors"`
	QueryEvals  int64 `json:"query_evals"`
	ResultHits  int64 `json:"result_cache_hits"`
	CompileHits int64 `json:"compile_cache_hits"`
	Swaps       int64 `json:"swaps"`

	// Overload & failure hardening totals.
	Shed           int64  `json:"shed"`
	Timeouts       int64  `json:"timeouts"`
	Panics         int64  `json:"panics"`
	ReloadRejected int64  `json:"reload_rejected"`
	LastReloadErr  string `json:"last_reload_error,omitempty"`
	InFlight       int64  `json:"in_flight"`
	InFlightPeak   int64  `json:"in_flight_peak"`
	QueueDepth     int64  `json:"queue_depth"`

	QueryCache  memo.Stats `json:"query_cache"`
	ResultCache memo.Stats `json:"result_cache"`

	// Endpoints carries the per-endpoint latency histograms.
	Endpoints map[string]obs.HistStats `json:"endpoints,omitempty"`

	// PanicLog is the tail of recovered handler panics (stacks trimmed).
	PanicLog []PanicRecord `json:"panic_log,omitempty"`
}

// Stats returns the server's current serving totals. It works on a pending
// server too (zero snapshot identity, live counters).
func (s *Server) Stats() Stats {
	st := Stats{
		Ready:          s.Ready(),
		Draining:       s.draining.Load(),
		Requests:       s.requests.Load(),
		Errors:         s.errors.Load(),
		QueryEvals:     s.queryEvals.Load(),
		ResultHits:     s.resultHits.Load(),
		CompileHits:    s.compileHits.Load(),
		Swaps:          s.swaps.Load(),
		Shed:           s.shed.Load(),
		Timeouts:       s.timeouts.Load(),
		Panics:         s.panics.Load(),
		ReloadRejected: s.reloadRejected.Load(),
		LastReloadErr:  s.LastReloadError(),
		QueryCache:     s.queries.Stats(),
	}
	if s.adm != nil {
		st.InFlight = s.adm.inflight.Load()
		st.InFlightPeak = s.adm.peak.Load()
		st.QueueDepth = s.adm.queued.Load()
	}
	if ix := s.cur.Load(); ix != nil {
		st.Gen = ix.gen
		st.Docs = len(ix.names)
		st.Paths = len(ix.frozen.Paths())
		st.ResultCache = ix.results.Stats()
	}
	st.Endpoints = make(map[string]obs.HistStats, len(s.hist))
	for name, h := range s.hist {
		if hs := h.Snapshot(); hs.Count > 0 {
			st.Endpoints[name] = hs
		}
	}
	st.PanicLog = s.Panics()
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.Stats())
}

// handleHealthz is liveness: the process is up and answering, snapshot or
// not. Load balancers wanting routability ask /readyz instead.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	var gen uint64
	docs := 0
	if ix := s.cur.Load(); ix != nil {
		gen, docs = ix.gen, len(ix.names)
	}
	writeJSON(w, map[string]any{"status": "ok", "gen": gen, "docs": docs})
}

// handleReadyz is readiness: 503 until the first snapshot is installed and
// again from BeginDrain onward, 200 in between.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	switch {
	case s.draining.Load():
		s.httpError(w, http.StatusServiceUnavailable, "draining")
	case s.cur.Load() == nil:
		s.httpError(w, http.StatusServiceUnavailable, "no snapshot installed yet")
	default:
		ix := s.cur.Load()
		writeJSON(w, map[string]any{"status": "ready", "gen": ix.gen, "docs": len(ix.names)})
	}
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.httpError(w, http.StatusMethodNotAllowed, "reload requires POST")
		return
	}
	gen, err := s.Reload()
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, map[string]any{"status": "reloaded", "gen": gen})
}
