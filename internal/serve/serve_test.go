package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webrev/internal/dom"
	"webrev/internal/dtd"
	"webrev/internal/repository"
	"webrev/internal/schema"
	"webrev/internal/xmlout"
)

func el(tag string, children ...*dom.Node) *dom.Node {
	return dom.Elem(tag, nil, children...)
}

func elv(tag, val string, children ...*dom.Node) *dom.Node {
	return dom.Elem(tag, []string{"val", val}, children...)
}

func testDTD() *dtd.DTD {
	mk := func() *schema.DocPaths {
		return schema.Extract(el("resume",
			el("contact"),
			el("education", el("institution"), el("degree")),
			el("education", el("institution"), el("degree")),
		))
	}
	s := (&schema.Miner{SupThreshold: 0.5}).Discover([]*schema.DocPaths{mk(), mk()})
	return dtd.FromSchema(s, dtd.Options{})
}

func testDoc(i int) *dom.Node {
	return el("resume",
		elv("contact", fmt.Sprintf("person-%d", i)),
		el("education",
			elv("institution", fmt.Sprintf("UC %d", i%3)),
			elv("degree", "B.S."),
		),
	)
}

// testRepo builds an n-document repository whose doc i carries values
// derived from i+off, so swapped-in repos are distinguishable.
func testRepo(t testing.TB, n, off int) *repository.Repository {
	t.Helper()
	r := repository.New(testDTD())
	for i := 0; i < n; i++ {
		if err := r.Add(fmt.Sprintf("doc-%03d", i), testDoc(i+off)); err != nil {
			t.Fatalf("add doc %d: %v", i, err)
		}
	}
	return r
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
	return resp
}

func TestQueryEndpoint(t *testing.T) {
	s := NewServer(testRepo(t, 4, 0), Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var qr QueryResponse
	getJSON(t, ts.URL+"/api/query?q="+url.QueryEscape("//institution"), &qr)
	if qr.Total != 4 || len(qr.Results) != 4 || qr.Truncated {
		t.Fatalf("total=%d results=%d truncated=%v", qr.Total, len(qr.Results), qr.Truncated)
	}
	if qr.Results[0].Doc != "doc-000" || qr.Results[0].Path != "resume/education/institution" {
		t.Fatalf("unexpected first result %+v", qr.Results[0])
	}

	// A limit caps rendering but the total stays exact via Count.
	var limited QueryResponse
	getJSON(t, ts.URL+"/api/query?limit=2&q="+url.QueryEscape("//institution"), &limited)
	if limited.Total != 4 || len(limited.Results) != 2 || !limited.Truncated {
		t.Fatalf("limited: total=%d results=%d truncated=%v",
			limited.Total, len(limited.Results), limited.Truncated)
	}

	// Predicate with quoted literal goes through end to end.
	var pred QueryResponse
	getJSON(t, ts.URL+"/api/query?q="+url.QueryEscape(`//institution[@val="UC 1"]`), &pred)
	if pred.Total != 1 { // docs carry UC 0, UC 1, UC 2, UC 0
		t.Fatalf("predicate total = %d, want 1", pred.Total)
	}

	// Repeat request must come from the snapshot's result cache.
	before := s.Stats().ResultHits
	getJSON(t, ts.URL+"/api/query?q="+url.QueryEscape("//institution"), &qr)
	if got := s.Stats().ResultHits; got != before+1 {
		t.Fatalf("result cache hits %d -> %d, want +1", before, got)
	}
}

func TestCountEndpoint(t *testing.T) {
	s := NewServer(testRepo(t, 5, 0), Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for expr, want := range map[string]int{
		"//institution":             5,
		"/resume/contact":           5,
		"//*":                       25, // 5 docs x 5 elements
		"/education/institution":    0,  // anchored at root: no match
		`//degree[@val="B.S."]`:     5,
		`//degree[@val="M.S."]`:     0,
		`//institution[@val~"UC "]`: 5,
	} {
		var cr CountResponse
		getJSON(t, ts.URL+"/api/count?q="+url.QueryEscape(expr), &cr)
		if cr.Count != want {
			t.Errorf("count(%s) = %d, want %d", expr, cr.Count, want)
		}
	}
}

func TestConceptEndpoint(t *testing.T) {
	s := NewServer(testRepo(t, 6, 0), Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var cr ConceptResponse
	getJSON(t, ts.URL+"/api/concept?name=institution", &cr)
	if cr.Total != 6 || len(cr.Instances) != 3 {
		t.Fatalf("total=%d instances=%d, want 6/3", cr.Total, len(cr.Instances))
	}
	// Values UC 0..UC 2 each appear twice, in two distinct docs.
	for _, inst := range cr.Instances {
		if inst.Count != 2 || inst.Docs != 2 {
			t.Errorf("instance %+v, want count=2 docs=2", inst)
		}
	}

	var one ConceptResponse
	getJSON(t, ts.URL+"/api/concept?name=institution&val=UC+1", &one)
	if one.Total != 2 || len(one.Instances) != 1 || one.Instances[0].Value != "UC 1" {
		t.Fatalf("val filter: %+v", one)
	}

	var sub ConceptResponse
	getJSON(t, ts.URL+"/api/concept?name=institution&val=UC&contains=1", &sub)
	if sub.Total != 6 {
		t.Fatalf("contains filter total = %d, want 6", sub.Total)
	}
}

func TestDocAndSchemaEndpoints(t *testing.T) {
	s := NewServer(testRepo(t, 3, 0), Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var docs struct {
		Count int      `json:"count"`
		Names []string `json:"names"`
	}
	getJSON(t, ts.URL+"/api/docs", &docs)
	if docs.Count != 3 || docs.Names[1] != "doc-001" {
		t.Fatalf("docs: %+v", docs)
	}

	for _, target := range []string{"/api/doc?i=1", "/api/doc?name=doc-001"} {
		resp, err := http.Get(ts.URL + target)
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		if resp.StatusCode != 200 || !strings.Contains(body, "person-1") {
			t.Fatalf("%s: status %d body %q", target, resp.StatusCode, body)
		}
	}

	resp, err := http.Get(ts.URL + "/api/dtd")
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); !strings.Contains(body, "<!ELEMENT resume") {
		t.Fatalf("dtd body %q", body)
	}

	var paths struct {
		Paths []PathInfo `json:"paths"`
	}
	getJSON(t, ts.URL+"/api/paths", &paths)
	if len(paths.Paths) != 5 {
		t.Fatalf("paths = %d, want 5", len(paths.Paths))
	}
	for _, p := range paths.Paths {
		if p.Docs != 3 {
			t.Errorf("path %s docs = %d, want 3", p.Path, p.Docs)
		}
	}
}

// TestDocReadErrorIs500: /api/doc serves the store's canonical bytes, and
// a disk-backed snapshot whose segment can no longer be read answers with
// a 500 carrying the store's error instead of a handler panic.
func TestDocReadErrorIs500(t *testing.T) {
	dir := t.TempDir()
	if err := testRepo(t, 3, 0).Save(dir); err != nil {
		t.Fatal(err)
	}
	repo, err := repository.LoadDisk(dir, repository.DiskOptions{MaxResidentDocs: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Store().Close()
	s := NewServer(repo, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/api/doc?i=1")
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); resp.StatusCode != 200 || body != xmlout.Marshal(testDoc(1)) {
		t.Fatalf("healthy fetch: status %d body %q", resp.StatusCode, body)
	}
	if err := os.Truncate(filepath.Join(dir, "segment.blob"), 0); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/api/doc?i=1")
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); resp.StatusCode != http.StatusInternalServerError || !strings.Contains(body, "disk store read") {
		t.Fatalf("unreadable document: status %d body %q", resp.StatusCode, body)
	}
	if st := s.Stats(); st.Panics != 0 || st.Errors != 1 {
		t.Fatalf("panics=%d errors=%d, want 0 and 1", st.Panics, st.Errors)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestErrorResponses(t *testing.T) {
	s := NewServer(testRepo(t, 2, 0), Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		target string
		want   int
	}{
		{"/api/query", http.StatusBadRequest},
		{"/api/query?q=" + url.QueryEscape("//a[@val=unquoted]"), http.StatusBadRequest},
		{"/api/query?q=%2F%2Finstitution&limit=-1", http.StatusBadRequest},
		{"/api/count", http.StatusBadRequest},
		{"/api/doc", http.StatusBadRequest},
		{"/api/doc?i=99", http.StatusNotFound},
		{"/api/doc?name=nope", http.StatusNotFound},
		{"/api/concept", http.StatusBadRequest},
		{"/api/concept?name=a%2Fb", http.StatusBadRequest},
		{"/api/reload", http.StatusMethodNotAllowed}, // GET
	}
	for _, c := range cases {
		resp, err := http.Get(ts.URL + c.target)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("GET %s = %d, want %d", c.target, resp.StatusCode, c.want)
		}
	}
	if s.Stats().Errors != int64(len(cases)) {
		t.Errorf("error counter = %d, want %d", s.Stats().Errors, len(cases))
	}

	// Reload with no source configured is a server-side error.
	resp, err := http.Post(ts.URL+"/api/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("reload without source = %d, want 500", resp.StatusCode)
	}
}

func TestReloadSwapsGeneration(t *testing.T) {
	n := 0
	s := NewServer(testRepo(t, 2, 0), Options{
		Reload: func() (*repository.Repository, error) {
			n++
			return testRepo(t, 2+n, 100), nil
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if got := s.Snapshot().Gen(); got != 1 {
		t.Fatalf("initial gen = %d, want 1", got)
	}
	resp, err := http.Post(ts.URL+"/api/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rr struct {
		Gen uint64 `json:"gen"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rr.Gen != 2 || s.Snapshot().Gen() != 2 || s.Snapshot().Docs() != 3 {
		t.Fatalf("after reload: gen=%d docs=%d", s.Snapshot().Gen(), s.Snapshot().Docs())
	}
}

// TestSwapDuringLoad is the serving design's core guarantee under the race
// detector: many clients hammer the query surface while the snapshot is
// swapped out from under them, and every single request succeeds — no
// torn reads, no errors, no lost requests.
func TestSwapDuringLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("load test skipped in -short")
	}
	s := NewServer(testRepo(t, 8, 0), Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	clients := 64
	gen := 0
	res, err := LoadTest(s, ts.URL, LoadOptions{
		Clients:   clients,
		Duration:  1500 * time.Millisecond,
		Workload:  s.DefaultWorkload(8),
		SwapEvery: 20 * time.Millisecond,
		SwapRepo: func() *repository.Repository {
			gen++
			return testRepo(t, 8, gen)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("load: %s", res)
	if res.Errors != 0 {
		t.Fatalf("%d of %d requests failed during swap-under-load", res.Errors, res.Requests)
	}
	if res.Requests < int64(clients) {
		t.Fatalf("only %d requests completed with %d clients", res.Requests, clients)
	}
	if res.Swaps == 0 {
		t.Fatal("no background swaps happened; the test exercised nothing")
	}
	if got := s.Stats().Requests; got != res.Requests {
		t.Fatalf("server counted %d requests, harness counted %d — lost requests", got, res.Requests)
	}
	if s.Snapshot().Gen() != uint64(res.Swaps)+1 {
		t.Fatalf("gen = %d after %d swaps", s.Snapshot().Gen(), res.Swaps)
	}
}

// TestConcurrentSnapshotReads races direct (no-HTTP) snapshot reads
// against continuous swaps — the in-process half of the swap guarantee.
func TestConcurrentSnapshotReads(t *testing.T) {
	s := NewServer(testRepo(t, 4, 0), Options{})
	stop := make(chan struct{})
	var swapped atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s.Swap(testRepo(t, 4, i))
			swapped.Add(1)
		}
	}()
	q, err := s.compile("//institution")
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				ix := s.Snapshot()
				if got := q.Count(ix.Frozen()); got != 4 {
					t.Errorf("count = %d, want 4", got)
					return
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if swapped.Load() == 0 {
		t.Fatal("no swaps completed")
	}
}

func TestDefaultWorkloadAllValid(t *testing.T) {
	s := NewServer(testRepo(t, 3, 0), Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	w := s.DefaultWorkload(0)
	if len(w) < 10 {
		t.Fatalf("workload too small: %d", len(w))
	}
	for _, target := range w {
		resp, err := http.Get(ts.URL + target)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("workload target %s = %d", target, resp.StatusCode)
		}
	}
}

func TestStatsEndpoint(t *testing.T) {
	s := NewServer(testRepo(t, 2, 0), Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	expr := url.QueryEscape("//contact")
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/api/query?q=" + expr)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	var st Stats
	getJSON(t, ts.URL+"/api/stats", &st)
	if st.Gen != 1 || st.Docs != 2 || st.Paths != 5 {
		t.Fatalf("stats identity: %+v", st)
	}
	if st.QueryEvals != 1 || st.ResultHits != 2 {
		t.Fatalf("stats caching: evals=%d resultHits=%d, want 1/2", st.QueryEvals, st.ResultHits)
	}
	if st.ResultCache.Hits != 2 || st.ResultCache.Entries != 1 {
		t.Fatalf("result cache stats: %+v", st.ResultCache)
	}
}

func BenchmarkServeQueryHot(b *testing.B) {
	s := NewServer(testRepo(b, 32, 0), Options{})
	req := httptest.NewRequest("GET", "/api/query?q="+url.QueryEscape("//institution"), nil)
	h := s.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != 200 {
			b.Fatal(w.Code)
		}
	}
}

func BenchmarkServeCount(b *testing.B) {
	s := NewServer(testRepo(b, 32, 0), Options{})
	req := httptest.NewRequest("GET", "/api/count?q="+url.QueryEscape("//institution"), nil)
	h := s.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != 200 {
			b.Fatal(w.Code)
		}
	}
}

func TestDriftEndpoint(t *testing.T) {
	s := NewServer(testRepo(t, 2, 0), Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Before a watch cycle publishes anything the endpoint is a 404.
	resp, err := http.Get(ts.URL + "/api/drift")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /api/drift before publish = %d, want 404", resp.StatusCode)
	}

	want := &schema.Drift{
		Version: schema.DriftVersion,
		Cycle:   3,
		Docs:    schema.DocDelta{Unchanged: 7, Changed: 2},
		ShiftedPaths: []schema.PathShift{
			{Path: "resume/contact", OldSupport: 1, NewSupport: 0.8},
		},
	}
	s.SetDrift(want)
	var got schema.Drift
	if resp := getJSON(t, ts.URL+"/api/drift", &got); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /api/drift = %d, want 200", resp.StatusCode)
	}
	if got.Cycle != want.Cycle || got.Version != want.Version ||
		got.Docs != want.Docs || len(got.ShiftedPaths) != 1 ||
		got.ShiftedPaths[0] != want.ShiftedPaths[0] {
		t.Fatalf("drift round-trip mismatch: %+v", got)
	}

	// A newer report replaces the old one atomically.
	s.SetDrift(&schema.Drift{Version: schema.DriftVersion, Cycle: 4})
	getJSON(t, ts.URL+"/api/drift", &got)
	if got.Cycle != 4 {
		t.Fatalf("drift cycle after swap = %d, want 4", got.Cycle)
	}
}
