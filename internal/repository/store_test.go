package repository

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"webrev/internal/dom"
	"webrev/internal/obs"
	"webrev/internal/xmlout"
)

// testDoc returns a one-name résumé document as a store holds it.
func testDoc(name string) []byte {
	return []byte(xmlout.Marshal(dom.Elem("resume", nil, dom.Elem("name", []string{"val", name}))))
}

// storeDocs is a varied set of canonical documents for store tests.
func storeDocs(t *testing.T) [][]byte {
	t.Helper()
	grace := dom.Elem("resume", nil,
		dom.Elem("name", []string{"val", "Grace"}),
		dom.Elem("education", nil, dom.Elem("degree", []string{"val", "PhD"})))
	skills := dom.Elem("resume", nil,
		dom.Elem("skills", nil, dom.Elem("skill", []string{"val", "go"}), dom.Elem("skill", []string{"val", "sql"})))
	return [][]byte{
		testDoc("Ada"),
		[]byte(xmlout.Marshal(grace)),
		[]byte(xmlout.Marshal(skills)),
		testDoc("Ada"), // duplicate of doc 0
	}
}

func TestMemStoreBasics(t *testing.T) {
	s := NewMemStore()
	docs := storeDocs(t)
	for i, xml := range docs {
		root, err := xmlout.UnmarshalElement(string(xml))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Append(fmt.Sprintf("doc-%d", i), root); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != len(docs) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(docs))
	}
	for i, want := range docs {
		got, err := s.XML(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("doc %d XML mismatch", i)
		}
		if s.Name(i) != fmt.Sprintf("doc-%d", i) {
			t.Fatalf("doc %d name %q", i, s.Name(i))
		}
	}
	if _, err := s.Doc(len(docs)); err == nil {
		t.Fatal("out-of-range Doc should error")
	}
	if _, err := s.Doc(-1); err == nil {
		t.Fatal("negative Doc should error")
	}
}

func TestDiskStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	docs := storeDocs(t)
	s, err := CreateDiskStore(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, xml := range docs {
		if err := s.AppendXML(fmt.Sprintf("doc-%d", i), xml); err != nil {
			t.Fatal(err)
		}
	}
	check := func(s *DiskStore) {
		t.Helper()
		if s.Len() != len(docs) {
			t.Fatalf("Len = %d, want %d", s.Len(), len(docs))
		}
		for i, want := range docs {
			got, err := s.XML(i)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("doc %d XML mismatch after disk round trip", i)
			}
			root, err := s.Doc(i)
			if err != nil {
				t.Fatal(err)
			}
			if remarshaled := xmlout.Marshal(root); remarshaled != string(want) {
				t.Fatalf("doc %d decode+marshal not byte-identical", i)
			}
			if s.Name(i) != fmt.Sprintf("doc-%d", i) {
				t.Fatalf("doc %d name %q", i, s.Name(i))
			}
		}
	}
	check(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: everything must survive the close/open cycle byte-identically.
	s, err = OpenDiskStore(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	check(s)
	if _, err := s.XML(len(docs)); err == nil {
		t.Fatal("out-of-range XML should error")
	}
}

// TestDiskStoreIdenticalDocuments appends the same document six times:
// each append writes its own blob and every copy reads back. A store
// whose index lines share one extent, as appends wrote identical
// documents before they stopped sharing blobs, still opens and reads
// every document.
func TestDiskStoreIdenticalDocuments(t *testing.T) {
	dir := t.TempDir()
	s, err := CreateDiskStore(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	xml := testDoc("Ada")
	for i := 0; i < 6; i++ {
		if err := s.AppendXML(fmt.Sprintf("copy-%d", i), xml); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, "segment.blob")); err != nil || fi.Size() != 6*int64(len(xml)) {
		t.Fatalf("segment holds %v bytes (%v), want one blob per append: %d", fi.Size(), err, 6*len(xml))
	}

	shared := t.TempDir()
	sha := sha256.Sum256(xml)
	line := fmt.Sprintf(`{"name":%%q,"sha":"%x","off":0,"len":%d}`, sha, len(xml))
	index := "webrev-diskstore v1\n" + fmt.Sprintf(line, "a") + "\n" + fmt.Sprintf(line, "b") + "\n"
	if err := os.WriteFile(filepath.Join(shared, "index.log"), []byte(index), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(shared, "segment.blob"), xml, 0o644); err != nil {
		t.Fatal(err)
	}
	for dir, n := range map[string]int{dir: 6, shared: 2} {
		s, err := OpenDiskStore(dir, DiskOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if s.Len() != n {
			t.Fatalf("%s: %d documents, want %d", dir, s.Len(), n)
		}
		for i := 0; i < n; i++ {
			if got, err := s.XML(i); err != nil || !bytes.Equal(got, xml) {
				t.Fatalf("%s: doc %d = %q, %v", dir, i, got, err)
			}
		}
		s.Close()
	}
}

func TestDiskStoreLRUEviction(t *testing.T) {
	dir := t.TempDir()
	coll := obs.NewCollector()
	s, err := CreateDiskStore(dir, DiskOptions{MaxResidentDocs: 1, Tracer: coll})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	docs := storeDocs(t)
	for i, xml := range docs[:3] {
		if err := s.AppendXML(fmt.Sprintf("doc-%d", i), xml); err != nil {
			t.Fatal(err)
		}
	}
	// Alternating reads under a 1-doc cap: every switch evicts and decodes
	// anew; a repeat of the resident doc hits.
	for _, i := range []int{0, 1, 1, 0, 2} {
		root, err := s.Doc(i)
		if err != nil {
			t.Fatal(err)
		}
		if got := xmlout.Marshal(root); got != string(docs[i]) {
			t.Fatalf("doc %d wrong under eviction", i)
		}
	}
	snap := coll.Snapshot()
	if snap.Counters[obs.CtrStoreHits] != 1 {
		t.Fatalf("store.hits = %d, want 1", snap.Counters[obs.CtrStoreHits])
	}
	if snap.Counters[obs.CtrStoreMisses] != 4 {
		t.Fatalf("store.misses = %d, want 4", snap.Counters[obs.CtrStoreMisses])
	}
	if snap.Counters[obs.CtrStoreEvictions] != 3 {
		t.Fatalf("store.evictions = %d, want 3", snap.Counters[obs.CtrStoreEvictions])
	}
}

// TestDiskStoreSelfHealingOpen corrupts the tail of a store the way a
// crash mid-append would — a torn index line, unindexed segment bytes —
// and checks Open recovers every complete document and discards the rest.
func TestDiskStoreSelfHealingOpen(t *testing.T) {
	dir := t.TempDir()
	docs := storeDocs(t)
	s, err := CreateDiskStore(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, xml := range docs[:3] {
		if err := s.AppendXML(fmt.Sprintf("doc-%d", i), xml); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash simulation: half an index line and dangling segment bytes.
	idx := filepath.Join(dir, "index.log")
	seg := filepath.Join(dir, "segment.blob")
	appendBytes := func(path string, b []byte) {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(b); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	appendBytes(seg, []byte("<resume><name val=\"half-written"))
	appendBytes(idx, []byte(`{"name":"torn","sha":"ab`)) // no trailing newline

	s, err = OpenDiskStore(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Fatalf("healed store has %d docs, want 3", s.Len())
	}
	for i, want := range docs[:3] {
		got, err := s.XML(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("doc %d corrupted by heal", i)
		}
	}
	// The healed store accepts appends and round-trips them.
	if err := s.AppendXML("doc-3", docs[3]); err != nil {
		t.Fatal(err)
	}
	got, err := s.XML(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, docs[3]) {
		t.Fatal("append after heal corrupted")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A corrupt (non-JSON) complete line also truncates the tail.
	appendBytes(idx, []byte("not json at all\n"))
	s, err = OpenDiskStore(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 4 {
		t.Fatalf("store has %d docs after corrupt-line heal, want 4", s.Len())
	}
}

func TestDiskStoreTruncateDocs(t *testing.T) {
	dir := t.TempDir()
	docs := storeDocs(t)
	s, err := CreateDiskStore(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, xml := range docs[:3] {
		if err := s.AppendXML(fmt.Sprintf("doc-%d", i), xml); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.TruncateDocs(5); err == nil {
		t.Fatal("truncate beyond length should error")
	}
	if err := s.TruncateDocs(1); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after truncate, want 1", s.Len())
	}
	// Appends continue after the truncation point, and the whole store
	// survives a reopen.
	if err := s.AppendXML("replacement", docs[2]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = OpenDiskStore(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 2 {
		t.Fatalf("Len = %d after reopen, want 2", s.Len())
	}
	for i, want := range [][]byte{docs[0], docs[2]} {
		got, err := s.XML(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("doc %d wrong after truncate+append+reopen", i)
		}
	}
	if s.Name(1) != "replacement" {
		t.Fatalf("name after truncate = %q", s.Name(1))
	}
}

func TestRepositoryOnDiskStore(t *testing.T) {
	// A repository over a DiskStore must behave like one over a MemStore:
	// same names, docs, and saved form.
	dir := t.TempDir()
	s, err := CreateDiskStore(filepath.Join(dir, "store"), DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	docs := storeDocs(t)
	for i, xml := range docs[:3] {
		if err := s.AppendXML(fmt.Sprintf("doc-%d", i), xml); err != nil {
			t.Fatal(err)
		}
	}
	r := NewWithStore(nil, s)
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	names := r.Names()
	if len(names) != 3 || names[2] != "doc-2" {
		t.Fatalf("Names = %v", names)
	}
	for i := range docs[:3] {
		if d := r.Doc(i); d == nil {
			t.Fatalf("Doc(%d) = nil", i)
		}
	}
	if got := r.Doc(99); got != nil {
		t.Fatal("out-of-range Doc should be nil")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDiskStoreCorruptMiddleLine: a malformed index line with lines after
// it is corruption, not a torn tail. Every open rejects the store and
// leaves both files as they were instead of truncating the later
// documents away.
func TestDiskStoreCorruptMiddleLine(t *testing.T) {
	dir := t.TempDir()
	s, err := CreateDiskStore(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Append(fmt.Sprintf("doc-%d", i), conformingDoc(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := SaveDTDFile(dir, testDTD(t)); err != nil {
		t.Fatal(err)
	}
	editFile(t, dir, "index.log", func(b []byte) []byte {
		lines := strings.Split(string(b), "\n")
		lines[2] = strings.Replace(lines[2], `"sha":"`, `"sha":"zz`, 1) // the second document
		return []byte(strings.Join(lines, "\n"))
	})
	before := dirBytes(t, dir)
	if s, err := OpenDiskStore(dir, DiskOptions{}); err == nil {
		t.Fatalf("OpenDiskStore accepted a corrupt middle line and kept %d documents", s.Len())
	}
	if _, err := LoadDisk(dir, DiskOptions{}); err == nil || !strings.Contains(err.Error(), "index line 3") {
		t.Fatalf("LoadDisk error = %v, want one naming index line 3", err)
	}
	if !reflect.DeepEqual(dirBytes(t, dir), before) {
		t.Fatal("opening a corrupt store changed its files")
	}
}

// TestReadingNeverWrites opens a store while its writer still buffers the
// index line of its last append. The readers reject the torn tail without
// healing it, so the writer's store, once closed, reopens whole.
func TestReadingNeverWrites(t *testing.T) {
	dir := t.TempDir()
	// Four distinct documents (storeDocs' fourth duplicates its first).
	fourth := testDoc("Edsger")
	docs := append(storeDocs(t)[:3], fourth)
	w, err := CreateDiskStore(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, xml := range docs {
		if i == 3 {
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.AppendXML(fmt.Sprintf("doc-%d", i), xml); err != nil {
			t.Fatal(err)
		}
	}
	if err := SaveDTDFile(dir, testDTD(t)); err != nil {
		t.Fatal(err)
	}
	before := dirBytes(t, dir)
	if _, err := LoadDisk(dir, DiskOptions{}); err == nil {
		t.Fatal("LoadDisk opened a store with unindexed segment bytes")
	}
	if _, err := Load(dir); err == nil {
		t.Fatal("Load opened a store with unindexed segment bytes")
	}
	if !reflect.DeepEqual(dirBytes(t, dir), before) {
		t.Fatal("a reader changed the store's files")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := OpenDiskStore(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != len(docs) {
		t.Fatalf("writer's store reopened with %d documents, want %d", s.Len(), len(docs))
	}
	for i, want := range docs {
		if got, err := s.XML(i); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("document %d did not survive (err %v)", i, err)
		}
	}
}

// TestOpenStoreSurvivesSave: Save publishes by renaming, so a store opened
// before a Save into its directory keeps reading the documents it opened.
func TestOpenStoreSurvivesSave(t *testing.T) {
	dir := t.TempDir()
	old := repoOf(t, "old", 3)
	if err := old.Save(dir); err != nil {
		t.Fatal(err)
	}
	open, err := LoadDisk(dir, DiskOptions{MaxResidentDocs: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer open.Store().Close()
	if err := open.Add("new", conformingDoc("new")); err == nil {
		t.Fatal("a LoadDisk repository accepted an append")
	}
	if err := repoOf(t, "new", 5).Save(dir); err != nil {
		t.Fatal(err)
	}
	if open.Len() != 3 {
		t.Fatalf("open store has %d documents after the Save, want 3", open.Len())
	}
	for i := 0; i < 3; i++ {
		want, _ := old.Store().XML(i)
		got, err := open.Store().XML(i)
		if err != nil || !bytes.Equal(got, want) || open.Names()[i] != old.Names()[i] {
			t.Fatalf("open store's document %d changed under a Save (err %v)", i, err)
		}
	}
	if r, err := Load(dir); err != nil || r.Len() != 5 || r.Names()[0] != "new-0" {
		t.Fatalf("Load after the Save: %v", err)
	}
}

// TestParseLineExact: an index line reads only in the one form AppendXML
// writes; a name with an escape is unquoted as encoding/json would.
func TestParseLineExact(t *testing.T) {
	sum := sha256.Sum256([]byte("x"))
	hexSum := fmt.Sprintf("%x", sum)
	good, err := formatLine(`a "quoted" \ name`, sum, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	e, err := parseLine(string(good), 7)
	if err != nil || e.name != `a "quoted" \ name` || e.sum != sum || e.off != 3 || e.n != 4 {
		t.Fatalf("parseLine(%s) = %+v, %v", good, e, err)
	}
	if _, err := parseLine(string(good), 6); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("an extent past the segment: %v", err)
	}
	line := func(name, sha, off, n string) string {
		return `{"name":` + name + `,"sha":"` + sha + `","off":` + off + `,"len":` + n + `}`
	}
	for _, bad := range []string{
		line(`"a"`, hexSum, "0", "1") + " ",
		`{"name": "a","sha":"` + hexSum + `","off":0,"len":1}`,
		`{"sha":"` + hexSum + `","name":"a","off":0,"len":1}`,
		line(`"a"`, strings.ToUpper(hexSum), "0", "1"),
		line(`"a"`, hexSum[2:], "0", "1"),
		line(`"a"`, hexSum, "01", "1"),
		line(`"a"`, hexSum, "-1", "1"),
		line(`"a"`, hexSum, "0", "2147483648"),
		line(`"a"`, hexSum, "0", "1.0"),
		line("\"a\x01\"", hexSum, "0", "1"),
		line("\"a\xff\"", hexSum, "0", "1"),
		line(`"a\q"`, hexSum, "0", "1"),
		line(`"a\"`, hexSum, "0", "1"),
	} {
		if _, err := parseLine(bad, 1<<20); err == nil {
			t.Errorf("parseLine accepted %q", bad)
		}
	}
}

// TestEachXMLReadsRuns: EachXML yields every document's bytes in index
// order, through contiguous runs, extents that are shared, skip forward
// or go back, and a document larger than one run, without reading
// through the LRU.
func TestEachXMLReadsRuns(t *testing.T) {
	dir := t.TempDir()
	s, err := CreateDiskStore(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	big := []byte(xmlout.Marshal(dom.Elem("resume", []string{"val", strings.Repeat("a", maxRun)})))
	docs := append(storeDocs(t), big, testDoc("after"))
	for i, xml := range docs {
		if err := s.AppendXML(fmt.Sprintf("doc-%d", i), xml); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Reorder the index: the last document first, a skip forward and
	// back, then the rest, and one document twice.
	data, err := os.ReadFile(filepath.Join(dir, "index.log"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	order := append([]int{len(docs) - 1, 0, 2, 1}, append(seq(len(docs))[3:], 1)...)
	shuffled := []string{lines[0]}
	for _, d := range order {
		shuffled = append(shuffled, lines[1+d])
	}
	mixed := t.TempDir()
	seg, err := os.ReadFile(filepath.Join(dir, "segment.blob"))
	if err == nil {
		err = os.WriteFile(filepath.Join(mixed, "segment.blob"), seg, 0o644)
	}
	if err == nil {
		err = os.WriteFile(filepath.Join(mixed, "index.log"), []byte(strings.Join(shuffled, "\n")+"\n"), 0o644)
	}
	if err != nil {
		t.Fatal(err)
	}
	for dir, want := range map[string][]int{dir: seq(len(docs)), mixed: order} {
		coll := obs.NewCollector()
		r, err := openDiskStore(dir, DiskOptions{Tracer: coll}, false)
		if err != nil {
			t.Fatal(err)
		}
		var got []int
		err = r.EachXML(func(i int, xml []byte) error {
			if i != len(got) {
				t.Fatalf("%s: document %d after %d documents", dir, i, len(got))
			}
			d := want[i]
			got = append(got, d)
			if !bytes.Equal(xml, docs[d]) || cap(xml) != len(xml) {
				t.Fatalf("%s: document %d reads %d bytes (cap %d), want document %d's %d", dir, i, len(xml), cap(xml), d, len(docs[d]))
			}
			return nil
		})
		if err != nil || len(got) != len(want) {
			t.Fatalf("%s: EachXML read %d of %d documents: %v", dir, len(got), len(want), err)
		}
		if coll.Counter(obs.CtrStoreHits)+coll.Counter(obs.CtrStoreMisses) != 0 {
			t.Fatalf("%s: EachXML read through the LRU", dir)
		}
		r.Close()
	}
}

// seq returns 0, 1, …, n-1.
func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestIndexSkipsLRU: a disk repository's tree index and serving index
// both read the segment directly, never the LRU; the tree index holds
// every node and the serving index none.
func TestIndexSkipsLRU(t *testing.T) {
	dir := t.TempDir()
	if err := repoOf(t, "doc", 5).Save(dir); err != nil {
		t.Fatal(err)
	}
	coll := obs.NewCollector()
	r, err := LoadDisk(dir, DiskOptions{Tracer: coll})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Store().Close()
	sx, err := r.ServingIndex()
	if err != nil {
		t.Fatal(err)
	}
	ix := r.Index()
	if ix == nil {
		t.Fatal("Index failed")
	}
	if diff := indexDiff(sx, ix); diff != "" {
		t.Fatal(diff)
	}
	if n := coll.Counter(obs.CtrStoreHits) + coll.Counter(obs.CtrStoreMisses); n != 0 {
		t.Fatalf("building the indexes read %d documents through the LRU", n)
	}
	if again, err := r.ServingIndex(); err != nil || again != ix {
		t.Fatalf("ServingIndex after Index = %p, %v; want the built index %p", again, err, ix)
	}
}
