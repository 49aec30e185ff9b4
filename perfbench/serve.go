package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"webrev/internal/concept"
	"webrev/internal/core"
	"webrev/internal/dom"
	"webrev/internal/obs"
	"webrev/internal/pathindex"
	"webrev/internal/query"
	"webrev/internal/repository"
	"webrev/internal/serve"
	"webrev/internal/xmlout"
)

// The serve workload: a disk repository built during set-up is opened and
// served behind a loopback listener, driven open-loop at fixed rates by a
// request mix with a cached hot set, a long tail over a working set larger
// than the caches, and a snapshot reload swapped in at a fixed interval.
const (
	serveDocs       = 2000
	serveResident   = 256    // decoded-document LRU of the served store, below serveDocs
	serveRequests   = 200000 // longer than a run sends, so the tail does not repeat
	serveSubstr     = 4      // length of the value substrings in tail predicates
	serveHot        = 8      // queries in the hot set
	serveClients    = 2      // load generator connections
	serveInFlight   = 256
	serveMaxResults = 1000                    // the server's cap on rendered matches
	serveRefRate    = 1000.0                  // reference rate, requests per second
	serveMinRounds  = 3                       // rounds of a run, however short --seconds is
	serveSwapEvery  = 1000 * time.Millisecond // snapshot reload interval
	serveSampleRate = 16                      // every n-th response body is checked
)

// request is one entry of the request list.
type request struct {
	endpoint string // serve handler the request reaches
	uri      string
	expr     string // query expression of query, count and concept requests
	concept  string // concept name of concept requests
	limit    int
	doc      int // document index of doc requests
}

type serveBench struct {
	docs    int
	dir     string
	repoDir string
	reqs    []request
}

func newServeBench() *serveBench { return &serveBench{docs: serveDocs} }

func (b *serveBench) setup(dir string, seed int64) (string, error) {
	b.dir = dir
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	htmls := generate(seed, b.docs)
	p, err := resumePipeline(concept.ResumeConstraints(), 0)
	if err != nil {
		return "", err
	}
	build := filepath.Join(dir, "build")
	res, err := p.BuildShardedFrom(context.Background(), b.docs, func(i int) (core.Source, error) {
		return core.Source{Name: fmt.Sprintf("doc-%06d.html", i), HTML: htmls[i]}, nil
	}, core.ShardOptions{Shards: buildShards, Dir: build, CheckpointEvery: buildCheckpoint})
	if err != nil {
		return "", err
	}
	if err := res.Repo.Store().Close(); err != nil {
		return "", err
	}
	b.repoDir = filepath.Join(build, "final")
	repo, err := repository.LoadDisk(b.repoDir, repository.DiskOptions{MaxResidentDocs: -1})
	if err != nil {
		return "", err
	}
	defer repo.Store().Close()
	b.reqs = requestMix(repo, rand.New(rand.NewSource(seed)))
	h := sha256.New()
	d, err := digest(repo)
	if err != nil {
		return "", err
	}
	h.Write([]byte(d))
	for _, q := range b.reqs {
		fmt.Fprintf(h, "%s\x00", q.uri)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// requestMix draws the request list from the repository's own paths and
// values. No recorded traffic exists to take the shares from, so they are
// assumptions, each chosen for what it makes the server do (README.md, "The
// serve request mix"):
//
//   - 40% a hot set of serveHot anchored queries, which the result cache
//     answers after their first evaluation in each snapshot;
//   - 20% substring queries, 10% counts and 10% concept lookups, each on a
//     random label and a random substring of one of its values — a long
//     tail of distinct expressions that compile and evaluate afresh
//     however fast the server goes, so cache hit rates do not depend on
//     throughput;
//   - 17% document fetches over every document, a working set larger than
//     the store's decoded-document LRU;
//   - 3% path listings.
func requestMix(repo *repository.Repository, rng *rand.Rand) []request {
	frozen := repo.Index().Freeze()
	paths := append([]string(nil), frozen.Paths()...)
	sort.SliceStable(paths, func(i, j int) bool { return frozen.DocFrequency(paths[i]) > frozen.DocFrequency(paths[j]) })
	var hot []request
	for _, p := range paths[:min(serveHot, len(paths))] {
		hot = append(hot, queryRequest("/"+p, 20))
	}
	// Labels with the values found under them, for the tail's predicates.
	type valued struct {
		label string
		vals  []string
	}
	var pool []valued
	for _, p := range frozen.Paths() {
		var vals []string
		for _, ref := range frozen.Lookup(p) {
			if v := ref.Node.Val(); len(v) >= serveSubstr && !strings.ContainsAny(v, "\"\\") {
				vals = append(vals, v)
			}
		}
		if len(vals) > 0 {
			pool = append(pool, valued{label: p[strings.LastIndex(p, "/")+1:], vals: vals})
		}
	}
	reqs := make([]request, serveRequests)
	for i := range reqs {
		pv := pool[rng.Intn(len(pool))]
		v := pv.vals[rng.Intn(len(pv.vals))]
		at := rng.Intn(len(v) - serveSubstr + 1)
		sub := v[at : at+serveSubstr]
		expr := "//" + pv.label + `[@val~"` + sub + `"]`
		switch x := rng.Intn(100); {
		case x < 40:
			reqs[i] = hot[rng.Intn(len(hot))]
		case x < 60:
			reqs[i] = queryRequest(expr, 20)
		case x < 70:
			reqs[i] = request{endpoint: "count", uri: "/api/count?q=" + url.QueryEscape(expr), expr: expr}
		case x < 80:
			// The server turns name and val into expr; sub holds no quote or
			// backslash, so it needs no escaping there.
			reqs[i] = request{endpoint: "concept", uri: "/api/concept?name=" + url.QueryEscape(pv.label) + "&contains=1&val=" + url.QueryEscape(sub), expr: expr, concept: pv.label}
		case x < 97:
			d := rng.Intn(repo.Len())
			reqs[i] = request{endpoint: "doc", uri: "/api/doc?i=" + strconv.Itoa(d), doc: d}
		default:
			reqs[i] = request{endpoint: "paths", uri: "/api/paths"}
		}
	}
	return reqs
}

func queryRequest(expr string, limit int) request {
	return request{
		endpoint: "query",
		uri:      "/api/query?q=" + url.QueryEscape(expr) + "&limit=" + strconv.Itoa(limit),
		expr:     expr,
		limit:    limit,
	}
}

// timedStore times a snapshot's decoded-document reads once it serves,
// leaving out the reads that build its path index.
type timedStore struct {
	repository.Store
	clk   *clock
	reads *storeReads
}

func (s timedStore) Doc(i int) (*dom.Node, error) {
	if !s.reads.live.Load() {
		return s.Store.Doc(i)
	}
	t := time.Now()
	d, err := s.Store.Doc(i)
	s.clk.add(time.Since(t))
	return d, err
}

// storeReads counts one snapshot store's decoded-document cache hits and
// misses while it serves: the store's own collector counts them, and the
// counts when serving began are subtracted.
type storeReads struct {
	coll           *obs.Collector
	hits0, misses0 int64
	live           atomic.Bool
}

// serving starts (or restarts) the count.
func (s *storeReads) serving() {
	s.hits0 = s.coll.Counter(obs.CtrStoreHits)
	s.misses0 = s.coll.Counter(obs.CtrStoreMisses)
	s.live.Store(true)
}

func (s *storeReads) counts() (hits, misses int64) {
	return s.coll.Counter(obs.CtrStoreHits) - s.hits0, s.coll.Counter(obs.CtrStoreMisses) - s.misses0
}

// servePass is one served repository under load: the server, its
// loopback listener, and the snapshot reloads swapped in beside it.
type servePass struct {
	b      *serveBench
	srv    *serve.Server
	lb     *loopback
	cs     []*http.Client
	next   int // index of the next request in the list
	traced bool
	stores []repository.Store // every snapshot's store, closed at the end

	// Traced passes only: spans of the serving layers.
	opens, indexes, freezes, swaps clock
	docs                           clock
	handler                        map[string]*clock
	reads                          []*storeReads
}

// open loads the repository from disk and builds a snapshot the server can
// install; traced passes time each step and wrap the store.
func (p *servePass) open() (*repository.Repository, error) {
	opts := repository.DiskOptions{MaxResidentDocs: serveResident}
	if !p.traced {
		repo, err := repository.LoadDisk(p.b.repoDir, opts)
		if err != nil {
			return nil, err
		}
		p.stores = append(p.stores, repo.Store())
		return repo, nil
	}
	reads := &storeReads{coll: obs.NewCollector()}
	opts.Tracer = reads.coll
	t := time.Now()
	disk, err := repository.LoadDisk(p.b.repoDir, opts)
	if err != nil {
		return nil, err
	}
	p.stores = append(p.stores, disk.Store())
	t = p.opens.lap(t)
	repo := repository.NewWithStore(disk.DTD(), timedStore{Store: disk.Store(), clk: &p.docs, reads: reads})
	ix := repo.Index()
	t = p.indexes.lap(t)
	ix.Freeze()
	p.freezes.lap(t)
	reads.serving()
	p.reads = append(p.reads, reads)
	return repo, nil
}

// start opens the repository and serves it.
func (b *serveBench) start(traced bool) (*servePass, error) {
	p := &servePass{b: b, traced: traced}
	if traced {
		p.handler = map[string]*clock{}
		for _, e := range []string{"query", "count", "concept", "doc", "paths"} {
			p.handler[e] = &clock{}
		}
	}
	repo, err := p.open()
	if err != nil {
		return nil, err
	}
	p.srv = serve.NewServer(repo, serve.Options{MaxInFlight: serveInFlight, MaxResults: serveMaxResults})
	var h http.Handler = p.srv.Handler()
	if traced {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			t := time.Now()
			inner.ServeHTTP(w, r)
			if c := p.handler[strings.TrimPrefix(r.URL.Path, "/api/")]; c != nil {
				c.add(time.Since(t))
			}
		})
	}
	if p.lb, err = startLoopback(h); err != nil {
		return nil, err
	}
	p.cs = clients(serveClients)
	return p, nil
}

// swap reloads the repository from disk and swaps it in.
func (p *servePass) swap() error {
	repo, err := p.open()
	if err != nil {
		return err
	}
	t := time.Now()
	_, err = p.srv.TrySwap(repo)
	p.swaps.add(time.Since(t))
	if err != nil {
		return err
	}
	// Requests finish within milliseconds, so none still reads the
	// snapshot two generations back; close its store as a daemon would.
	for len(p.stores) > 2 {
		if err := p.stores[0].Close(); err != nil {
			return err
		}
		p.stores = p.stores[1:]
	}
	return nil
}

// close stops the listener and closes every store.
func (p *servePass) close() error {
	closeClients(p.cs)
	err := p.lb.close()
	for _, s := range p.stores {
		if cerr := s.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// withSwaps runs fn while a snapshot reload is swapped in every
// serveSwapEvery from a quarter interval in, for dur: every phase of a
// given length sees its swaps at the same offsets.
func (p *servePass) withSwaps(dur time.Duration, fn func()) error {
	stop := make(chan struct{})
	swapped := make(chan error, 1)
	start := time.Now()
	go func() {
		var err error
		defer func() { swapped <- err }()
		for at := serveSwapEvery / 4; at < dur && err == nil; at += serveSwapEvery {
			select {
			case <-stop:
				return
			case <-time.After(at - time.Since(start)):
			}
			err = p.swap()
		}
	}()
	fn()
	close(stop)
	return <-swapped
}

// uri maps schedule index j to request first+j of the list, wrapping.
func (p *servePass) uri(first int) func(j int) (int, string) {
	return func(j int) (int, string) {
		i := (first + j) % len(p.b.reqs)
		return i, p.b.reqs[i].uri
	}
}

// load runs one fixed-rate schedule over the next stretch of the request
// list.
func (p *servePass) load(rate float64, dur time.Duration) ([]shot, error) {
	var shots []shot
	first := p.next
	err := p.withSwaps(dur, func() {
		shots = openLoop(p.cs, p.lb.base, rate, dur, p.uri(first),
			func(j int) bool { return (first+j)%serveSampleRate == 0 })
	})
	p.next = (first + len(shots)) % len(p.b.reqs)
	return shots, err
}

// saturate runs the closed loop over the next stretch of the request list
// and returns responses per second.
func (p *servePass) saturate(r *report, dur time.Duration) (float64, error) {
	var done, failed int64
	next := p.uri(p.next)
	err := p.withSwaps(dur, func() {
		done, failed = closedLoop(p.cs, p.lb.base, dur, func(j int) string {
			_, u := next(j)
			return u
		})
	})
	p.next = (p.next + int(done)) % len(p.b.reqs)
	r.ops(done, failed)
	return float64(done-failed) / dur.Seconds(), err
}

func (b *serveBench) measure(r *report, seconds float64) (err error) {
	p, err := b.start(false)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := p.close(); err == nil {
			err = cerr
		}
	}()
	if _, err := p.load(serveRefRate, serveSwapEvery/4); err != nil { // warm connections and caches
		return err
	}
	// Rounds interleave the measurements, so a slow stretch of the machine
	// touches each of them alike: a restart's open, one reload interval at
	// the reference rate, one reload interval of the closed loop.
	rounds := max(serveMinRounds, int(seconds/(2*serveSwapEvery.Seconds())))
	var rs repeats
	var opens []float64
	var ref []shot
	for i := 0; i < rounds; i++ {
		d, err := timeOpen(b.repoDir, repository.DiskOptions{MaxResidentDocs: serveResident})
		if err != nil {
			return err
		}
		opens = append(opens, d.Seconds())
		shots, err := p.load(serveRefRate, serveSwapEvery)
		if err != nil {
			return err
		}
		ref = append(ref, shots...)
		rps, err := p.saturate(r, serveSwapEvery)
		if err != nil {
			return err
		}
		rs.add(latencies(shots), rps)
	}
	var failed int64
	for _, s := range ref {
		if !s.ok {
			failed++
		}
	}
	r.ops(int64(len(ref)), failed)
	if err := b.check(r, ref, nil); err != nil {
		return err
	}
	if err := rs.report(r, 0.99); err != nil {
		return err
	}
	r.set("open_s", median(opens), "s", len(opens))
	size, err := dirBytes(b.repoDir)
	if err != nil {
		return err
	}
	r.set("bytes_per_doc", float64(size)/float64(b.docs), "B", 1)
	return nil
}

// directTimes are the per-layer costs the correctness check measures when
// it recomputes sampled responses through the public query and xmlout
// calls.
type directTimes struct {
	compile, eval, render clock
	refs, results         int64
}

// check recomputes every sampled response directly on a separately
// opened copy of the repository — query.Compile plus evaluation over its
// frozen index, the index's path listing, or xmlout of the document — and
// requires equal bodies.
func (b *serveBench) check(r *report, shots []shot, dt *directTimes) error {
	repo, err := repository.LoadDisk(b.repoDir, repository.DiskOptions{MaxResidentDocs: -1})
	if err != nil {
		return err
	}
	defer repo.Store().Close()
	frozen := repo.Index().Freeze()
	names := repo.Names()
	if dt == nil {
		dt = &directTimes{}
	}
	for _, s := range shots {
		if s.body == nil || !s.ok {
			continue
		}
		q := b.reqs[s.req]
		switch q.endpoint {
		case "query":
			var got serve.QueryResponse
			if err := json.Unmarshal(s.body, &got); err != nil {
				r.wrongf("%s: undecodable body: %v", q.uri, err)
				continue
			}
			want, err := directQuery(q, got.Gen, frozen, names, dt)
			if err != nil {
				return err
			}
			if !bytes.Equal(s.body, want) {
				r.wrongf("%s: served body differs from direct evaluation", q.uri)
			}
		case "count":
			var got serve.CountResponse
			if err := json.Unmarshal(s.body, &got); err != nil {
				r.wrongf("%s: undecodable body: %v", q.uri, err)
				continue
			}
			c, err := query.Compile(q.expr)
			if err != nil {
				return err
			}
			if n := c.Count(frozen); got.Count != n || got.Query != q.expr {
				r.wrongf("%s: served count %d, direct count %d", q.uri, got.Count, n)
			}
		case "concept":
			var got serve.ConceptResponse
			if err := json.Unmarshal(s.body, &got); err != nil {
				r.wrongf("%s: undecodable body: %v", q.uri, err)
				continue
			}
			want, err := directConcept(q, got.Gen, frozen)
			if err != nil {
				return err
			}
			if !bytes.Equal(s.body, want) {
				r.wrongf("%s: served concept view differs from direct evaluation", q.uri)
			}
		case "doc":
			t := time.Now()
			want := xmlout.Marshal(repo.Doc(q.doc))
			dt.render.add(time.Since(t))
			if string(s.body) != want {
				r.wrongf("%s: served document differs from the stored one", q.uri)
			}
		case "paths":
			var got struct {
				Gen uint64 `json:"gen"`
			}
			if err := json.Unmarshal(s.body, &got); err != nil {
				r.wrongf("%s: undecodable body: %v", q.uri, err)
				continue
			}
			want, err := directPaths(got.Gen, frozen)
			if err != nil {
				return err
			}
			if !bytes.Equal(s.body, want) {
				r.wrongf("%s: served path listing differs from the frozen index", q.uri)
			}
		}
	}
	return nil
}

// directConcept renders the /api/concept body for q the way the server
// does: every match of q.expr, grouped by value in sorted order, with its
// occurrence and distinct-document counts.
func directConcept(q request, gen uint64, frozen *pathindex.Frozen) ([]byte, error) {
	c, err := query.Compile(q.expr)
	if err != nil {
		return nil, err
	}
	count := map[string]int{}
	docs := map[string]map[int]bool{}
	total := 0
	c.Each(frozen, func(_ string, ref pathindex.Ref) bool {
		total++
		v := ref.Node.Val()
		if docs[v] == nil {
			docs[v] = map[int]bool{}
		}
		count[v]++
		docs[v][ref.Doc] = true
		return true
	})
	vals := make([]string, 0, len(count))
	for v := range count {
		vals = append(vals, v)
	}
	sort.Strings(vals)
	resp := serve.ConceptResponse{Concept: q.concept, Gen: gen, Total: total, Instances: []serve.Instance{}}
	for _, v := range vals[:min(len(vals), serveMaxResults)] {
		resp.Instances = append(resp.Instances, serve.Instance{Value: v, Count: count[v], Docs: len(docs[v])})
	}
	body, err := json.Marshal(&resp)
	return append(body, '\n'), err
}

// directPaths renders the /api/paths body from the frozen index.
func directPaths(gen uint64, frozen *pathindex.Frozen) ([]byte, error) {
	out := []serve.PathInfo{}
	for _, p := range frozen.Paths() {
		avg, _ := frozen.AvgPosition(p)
		out = append(out, serve.PathInfo{Path: p, Docs: frozen.DocFrequency(p), Occurrences: len(frozen.Lookup(p)), AvgPosition: avg})
	}
	body, err := json.Marshal(map[string]any{"gen": gen, "paths": out})
	return append(body, '\n'), err
}

// directQuery renders the /api/query body for q the way the server does,
// from query.Compile and an evaluation over frozen, timing both.
func directQuery(q request, gen uint64, frozen *pathindex.Frozen, names []string, dt *directTimes) ([]byte, error) {
	t := time.Now()
	c, err := query.Compile(q.expr)
	if err != nil {
		return nil, err
	}
	t = dt.compile.lap(t)
	resp := serve.QueryResponse{Query: q.expr, Gen: gen, Results: []serve.Match{}}
	c.Each(frozen, func(path string, ref pathindex.Ref) bool {
		if len(resp.Results) >= q.limit {
			resp.Truncated = true
			return false
		}
		resp.Results = append(resp.Results, serve.Match{Doc: names[ref.Doc], Path: path, Val: ref.Node.Val(), Pos: ref.Pos})
		return true
	})
	resp.Total = len(resp.Results)
	if resp.Truncated {
		resp.Total = c.Count(frozen)
	}
	dt.eval.lap(t)
	// Refs the evaluation scans: every occurrence of the matched label
	// paths, which the predicate then filters.
	scanned := c.Count(frozen)
	if base, _, found := strings.Cut(q.expr, "["); found {
		if bc, err := query.Compile(base); err == nil {
			scanned = bc.Count(frozen)
		}
	}
	dt.refs += int64(scanned)
	dt.results += int64(max(resp.Total, 1))
	body, err := json.Marshal(&resp)
	return append(body, '\n'), err
}

func (b *serveBench) trace(r *report, seconds float64, primary bool) (err error) {
	p, err := b.start(true)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := p.close(); err == nil {
			err = cerr
		}
	}()
	if _, err := p.load(serveRefRate, serveSwapEvery/4); err != nil { // warm connections and caches
		return err
	}
	// Count serving-time work only: drop what opening and warming did.
	for _, c := range p.handler {
		c.reset()
	}
	p.docs.reset()
	for _, s := range p.reads {
		s.serving()
	}
	stats0 := p.srv.Stats()

	shots, err := p.load(serveRefRate, time.Duration(seconds*float64(time.Second)))
	if err != nil {
		return err
	}
	stats := p.srv.Stats()

	var wall, lagSum, rtt time.Duration
	lags := make([]float64, len(shots))
	var failed, queries int64
	for i, s := range shots {
		wall += s.latency()
		lagSum += s.lag()
		rtt += s.done - s.sent
		lags[i] = ms(s.lag())
		if !s.ok {
			failed++
		}
		if b.reqs[s.req].endpoint == "query" {
			queries++
		}
	}
	r.ops(int64(len(shots)), failed)
	var handled time.Duration
	var handlerSpans int64
	for _, c := range p.handler {
		handled += c.total()
		handlerSpans += c.n.Load()
	}
	dt := &directTimes{}
	if err := b.check(r, shots, dt); err != nil {
		return err
	}
	lagP99, err := percentile(lags, 0.99)
	if err != nil {
		return err
	}
	var hits, misses int64
	for _, s := range p.reads {
		h, m := s.counts()
		hits, misses = hits+h, misses+m
	}
	n := len(shots)
	r.set("repository.open_ms", p.opens.meanMS(), "ms", int(p.opens.n.Load()))
	r.set("pathindex.build_ms", p.indexes.meanMS(), "ms", int(p.indexes.n.Load()))
	r.set("pathindex.freeze_ms", p.freezes.meanMS(), "ms", int(p.freezes.n.Load()))
	for _, e := range []string{"query", "count", "concept", "doc", "paths"} {
		c := p.handler[e]
		r.set("serve.handler_us."+e, c.meanUS(), "us", int(c.n.Load()))
	}
	r.set("http.overhead_us", ratio(us(rtt-handled), float64(n)), "us", n)
	r.set("query.compile_us", dt.compile.meanUS(), "us", int(dt.compile.n.Load()))
	r.set("query.eval_us", dt.eval.meanUS(), "us", int(dt.eval.n.Load()))
	r.set("query.refs_per_result", ratio(float64(dt.refs), float64(dt.results)), "count", int(dt.compile.n.Load()))
	r.set("repository.doc_us", p.docs.meanUS(), "us", int(p.docs.n.Load()))
	r.set("repository.lru_hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio", int(hits+misses))
	r.set("xmlout.render_us", dt.render.meanUS(), "us", int(dt.render.n.Load()))
	r.set("serve.result_cache_hit_ratio", ratio(float64(stats.ResultHits-stats0.ResultHits), float64(queries)), "ratio", int(queries))
	compileHits := stats.QueryCache.Hits - stats0.QueryCache.Hits
	compiles := compileHits + stats.QueryCache.Misses - stats0.QueryCache.Misses
	r.set("serve.compile_cache_hit_ratio", ratio(float64(compileHits), float64(compiles)), "ratio", int(compiles))
	r.set("serve.swap_ms", p.swaps.meanMS(), "ms", int(p.swaps.n.Load()))
	r.set("serve.shed_ratio", ratio(float64(stats.Shed-stats0.Shed), float64(stats.Requests-stats0.Requests)), "ratio", int(stats.Requests-stats0.Requests))
	r.set("loadgen.lag_p99_ms", lagP99, "ms", n)
	if primary {
		// A request's latency from its due time is the generator's lag,
		// then the handler's span inside the server; what neither covers
		// is the HTTP transport, which no benchmark span reaches.
		r.set("unattributed_ratio", unattributed(wall, lagSum+handled), "ratio", n)
		spans := handlerSpans + p.docs.n.Load()
		r.set("trace.overhead_ratio", traceOverhead(spans, spanCost(), wall), "ratio", int(spans))
	}
	return nil
}
