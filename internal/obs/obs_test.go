package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNopIsFree(t *testing.T) {
	tr := Nop()
	if tr.Enabled() {
		t.Fatal("nop tracer reports enabled")
	}
	allocs := testing.AllocsPerRun(100, func() {
		sp := tr.StartSpan(StageConvert)
		tr.Add(CtrTokens, 3)
		tr.Set("g", 1)
		tr.Observe(StageCrawl, time.Second)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("nop tracer allocates: %v allocs/op", allocs)
	}
}

func TestOrNop(t *testing.T) {
	if OrNop(nil).Enabled() {
		t.Fatal("OrNop(nil) must be disabled")
	}
	c := NewCollector()
	if OrNop(c) != Tracer(c) {
		t.Fatal("OrNop must pass a non-nil tracer through")
	}
}

func TestCollectorRecords(t *testing.T) {
	c := NewCollector()
	sp := c.StartSpan(StageMine)
	sp.End()
	sp.End() // idempotent: second End must not record again
	c.Observe(StageMine, 5*time.Millisecond)
	c.Add(CtrPathsFrequent, 7)
	c.Add(CtrPathsFrequent, 3)
	c.Set("workers", 8)

	st, ok := c.Snapshot().Stages[StageMine]
	if !ok {
		t.Fatal("stage not recorded")
	}
	if st.Count != 2 {
		t.Fatalf("stage count = %d, want 2 (span + observe)", st.Count)
	}
	if st.Max < 5*time.Millisecond || st.Total < st.Max || st.Min > st.Max {
		t.Fatalf("implausible aggregate: %+v", st)
	}
	if got := c.Counter(CtrPathsFrequent); got != 10 {
		t.Fatalf("counter = %d, want 10", got)
	}
	if avg := st.Avg(); avg <= 0 || avg > st.Max {
		t.Fatalf("avg = %v out of range", avg)
	}
}

func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := c.StartSpan(StageConvert)
				c.Add(CtrDocsConverted, 1)
				sp.End()
			}
		}()
	}
	wg.Wait()
	if st := c.Snapshot().Stages[StageConvert]; st.Count != 1600 {
		t.Fatalf("span count = %d, want 1600", st.Count)
	}
	if got := c.Counter(CtrDocsConverted); got != 1600 {
		t.Fatalf("counter = %d, want 1600", got)
	}
}

func TestSnapshotRoundTripAndNormalize(t *testing.T) {
	c := NewCollector()
	c.Observe(StageDerive, 3*time.Millisecond)
	c.Add(CtrDTDElements, 20)
	c.Set("workers", 4)

	var buf bytes.Buffer
	if err := c.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Stages[StageDerive].Total != 3*time.Millisecond {
		t.Fatalf("round trip lost timing: %+v", back.Stages[StageDerive])
	}
	if back.Counters[CtrDTDElements] != 20 || back.Gauges["workers"] != 4 {
		t.Fatalf("round trip lost counters/gauges: %+v", back)
	}

	norm := back.Normalize()
	if st := norm.Stages[StageDerive]; st.Total != 0 || st.Count != 1 {
		t.Fatalf("normalize: want timings zeroed, count kept; got %+v", st)
	}
	if norm.Counters[CtrDTDElements] != 20 {
		t.Fatal("normalize dropped counters")
	}
	// Normalized snapshots are byte-stable across runs.
	a, _ := json.Marshal(norm)
	b, _ := json.Marshal(back.Normalize())
	if !bytes.Equal(a, b) {
		t.Fatal("normalized snapshots differ across calls")
	}
}

func TestSummary(t *testing.T) {
	c := NewCollector()
	c.Observe(StageConvert, 2*time.Millisecond)
	c.Add(CtrTokens, 42)
	s := c.Snapshot().Summary()
	for _, want := range []string{StageConvert, CtrTokens, "42", "count"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestServeDebug(t *testing.T) {
	c := NewCollector()
	c.Observe(StageCrawl, 7*time.Millisecond)
	c.Add(CtrCrawlFetched, 12)
	d, err := ServeDebug("127.0.0.1:0", c)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + d.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}

	if body := get("/metrics"); !strings.Contains(body, CtrCrawlFetched) {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}
	if body := get("/metrics/summary"); !strings.Contains(body, StageCrawl) {
		t.Fatalf("/metrics/summary missing stage:\n%s", body)
	}
	if body := get("/debug/vars"); !strings.Contains(body, "webrev") {
		t.Fatalf("/debug/vars missing published collector:\n%s", body)
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "profile") {
		t.Fatalf("/debug/pprof/ not serving index:\n%s", body)
	}

	// Publishing a second collector under the same name must rebind, not
	// panic.
	c2 := NewCollector()
	c2.Add("rebound", 1)
	c2.PublishExpvar("webrev")
	if body := get("/debug/vars"); !strings.Contains(body, "rebound") {
		t.Fatalf("expvar did not rebind to the new collector:\n%s", body)
	}
}
