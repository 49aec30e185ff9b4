package serve

import (
	"fmt"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"webrev/internal/dtd"
	"webrev/internal/obs"
	"webrev/internal/repository"
	"webrev/internal/xmlout"
)

// goldenRepoDir writes the golden corpus's conformed documents, each
// copies times, with its DTD as a repository directory and returns the
// directory.
func goldenRepoDir(tb testing.TB, copies int) string {
	tb.Helper()
	dtdText, err := os.ReadFile("../../testdata/golden/schema.dtd")
	if err != nil {
		tb.Fatal(err)
	}
	d, err := dtd.Parse(string(dtdText))
	if err != nil {
		tb.Fatal(err)
	}
	golden, err := os.ReadFile("../../testdata/golden/conformed.xml")
	if err != nil {
		tb.Fatal(err)
	}
	// The golden file holds "<!-- name -->\n" + Marshal(doc) + "\n" per
	// document, and a canonical document holds no blank line.
	r := repository.New(d)
	for k := 0; k < copies; k++ {
		for i, chunk := range strings.Split(strings.TrimSuffix(string(golden), "\n\n"), "\n\n") {
			name, xml, _ := strings.Cut(chunk, "\n")
			doc, err := xmlout.UnmarshalElement(xml + "\n")
			if err != nil {
				tb.Fatalf("golden document %d: %v", i, err)
			}
			if err := r.Add(fmt.Sprintf("%s #%d", strings.Trim(name, "<!-> "), k), doc); err != nil {
				tb.Fatal(err)
			}
		}
	}
	dir := tb.TempDir()
	if err := r.Save(dir); err != nil {
		tb.Fatal(err)
	}
	return dir
}

// TestDiskSnapshotHoldsNoTrees: serving a disk repository reads no
// document through the store's LRU and keeps no tree: every posting of
// the snapshot's index has a nil Node.
func TestDiskSnapshotHoldsNoTrees(t *testing.T) {
	dir := goldenRepoDir(t, 2)
	coll := obs.NewCollector()
	repo, err := repository.LoadDisk(dir, repository.DiskOptions{Tracer: coll})
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Store().Close()
	s := NewServer(repo, Options{})
	if !s.Ready() {
		t.Fatalf("server over %s not ready: %s", dir, s.LastReloadError())
	}
	if misses := coll.Counter(obs.CtrStoreMisses); misses != 0 {
		t.Fatalf("building the snapshot missed the LRU %d times, want 0", misses)
	}
	frozen := s.Snapshot().Frozen()
	n := 0
	for _, p := range frozen.Paths() {
		for _, ref := range frozen.Lookup(p) {
			if ref.Node != nil {
				t.Fatalf("posting of %s in document %d holds a tree", p, ref.Doc)
			}
			n++
		}
	}
	if n == 0 {
		t.Fatal("the snapshot indexes nothing")
	}
}

// TestDiskSnapshotAnswersAsLoad: over the golden corpus, a server over
// the disk repository answers every query, count, concept and path
// listing with the body a server over repository.Load of the same
// directory gives, apart from the generation.
func TestDiskSnapshotAnswersAsLoad(t *testing.T) {
	dir := goldenRepoDir(t, 1)
	disk, err := repository.LoadDisk(dir, repository.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Store().Close()
	mem, err := repository.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, want := NewServer(disk, Options{}), NewServer(mem, Options{})
	targets := []string{"/api/paths"}
	for _, p := range want.Snapshot().Frozen().Paths() {
		label := p[strings.LastIndex(p, "/")+1:]
		targets = append(targets,
			"/api/query?q="+url.QueryEscape("/"+p),
			"/api/query?limit=3&q="+url.QueryEscape("//"+label),
			"/api/count?q="+url.QueryEscape("//"+label),
			"/api/concept?name="+url.QueryEscape(label))
		if v := want.Snapshot().Frozen().Lookup(p)[0].Val; len(v) >= 3 {
			targets = append(targets,
				"/api/query?q="+url.QueryEscape("//"+label+`[@val~"`+strings.Trim(v[:3], `"\`)+`"]`),
				"/api/concept?contains=1&name="+url.QueryEscape(label)+"&val="+url.QueryEscape(v[:3]))
		}
	}
	gen := regexp.MustCompile(`"gen":\d+`)
	for _, target := range targets {
		var bodies [2]string
		for i, s := range []*Server{got, want} {
			w := httptest.NewRecorder()
			s.Handler().ServeHTTP(w, httptest.NewRequest("GET", target, nil))
			if w.Code != 200 {
				t.Fatalf("%s answered %d: %s", target, w.Code, w.Body)
			}
			bodies[i] = gen.ReplaceAllString(w.Body.String(), `"gen":0`)
		}
		if bodies[0] != bodies[1] {
			t.Fatalf("%s:\ndisk snapshot %s\nLoad snapshot %s", target, bodies[0], bodies[1])
		}
	}
}

// TestTrySwapRejectsCorruptBlob: a disk repository with one corrupt blob
// is a rejected swap that keeps the serving generation and surfaces the
// decode error.
func TestTrySwapRejectsCorruptBlob(t *testing.T) {
	dir := t.TempDir()
	if err := testRepo(t, 3, 0).Save(dir); err != nil {
		t.Fatal(err)
	}
	xml, err := testRepo(t, 1, 0).Store().XML(0)
	if err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "segment.blob")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// The first byte of the second blob: its XML declaration's '<'.
	at := len(xml)
	data[at] = 'x'
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	candidate, err := repository.LoadDisk(dir, repository.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer candidate.Store().Close()

	s := NewServer(testRepo(t, 2, 0), Options{})
	if _, err := s.TrySwap(candidate); err == nil || !strings.Contains(err.Error(), "document 1") {
		t.Fatalf("TrySwap of a repository whose document 1 does not decode: %v", err)
	}
	if st := s.Stats(); st.Gen != 1 || st.Docs != 2 || st.ReloadRejected != 1 {
		t.Fatalf("after the rejected swap: gen=%d docs=%d rejected=%d, want gen 1, 2 docs, 1 rejected",
			st.Gen, st.Docs, st.ReloadRejected)
	}
	if msg := s.LastReloadError(); !strings.Contains(msg, "xmlout") || !strings.Contains(msg, "document 1") {
		t.Fatalf("last reload error %q does not name the decode error", msg)
	}
}

// BenchmarkOpenSnapshot times what a restarted server pays before it
// answers: open a disk repository of 1,008 conformed documents (the golden
// corpus 84 times), build its serving snapshot, answer one count.
func BenchmarkOpenSnapshot(b *testing.B) {
	dir := goldenRepoDir(b, 84)
	req := httptest.NewRequest("GET", "/api/count?q=/resume", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		repo, err := repository.LoadDisk(dir, repository.DiskOptions{})
		if err != nil {
			b.Fatal(err)
		}
		w := httptest.NewRecorder()
		NewServer(repo, Options{}).Handler().ServeHTTP(w, req)
		if w.Code != 200 || !strings.Contains(w.Body.String(), `"count":1008`) {
			b.Fatalf("count answered %d: %s", w.Code, w.Body)
		}
		repo.Store().Close()
	}
}
