package repository

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"webrev/internal/obs"
	"webrev/internal/xmlout"
)

// testDoc builds a small canonical document tree by round-tripping a
// literal XML string through xmlout, so its Marshal form is exact.
func testDoc(t *testing.T, xml string) (tree []byte, n int) {
	t.Helper()
	root, err := xmlout.UnmarshalElement(xml)
	if err != nil {
		t.Fatalf("testDoc %q: %v", xml, err)
	}
	return []byte(xmlout.Marshal(root)), 0
}

// storeDocs is a varied set of canonical documents for store tests.
func storeDocs(t *testing.T) [][]byte {
	t.Helper()
	var out [][]byte
	for _, src := range []string{
		"<resume><name val=\"Ada\"/></resume>",
		"<resume><name val=\"Grace\"/><education><degree val=\"PhD\"/></education></resume>",
		"<resume><skills><skill val=\"go\"/><skill val=\"sql\"/></skills></resume>",
		"<resume><name val=\"Ada\"/></resume>", // duplicate of doc 0, for dedupe
	} {
		xml, _ := testDoc(t, src)
		out = append(out, xml)
	}
	return out
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

func TestDiskStoreDedupe(t *testing.T) {
	dir := t.TempDir()
	coll := obs.NewCollector()
	s, err := CreateDiskStore(dir, DiskOptions{Tracer: coll})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	xml, _ := testDoc(t, "<resume><name val=\"Ada\"/></resume>")
	if err := s.AppendXML("a", xml); err != nil {
		t.Fatal(err)
	}
	segSize := func() int64 {
		fi, err := os.Stat(filepath.Join(dir, "segment.blob"))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	size1 := segSize()
	for i := 0; i < 5; i++ {
		if err := s.AppendXML(fmt.Sprintf("dup-%d", i), xml); err != nil {
			t.Fatal(err)
		}
	}
	// Identical content costs only index lines, never new segment bytes.
	if grew := segSize() - size1; grew != 0 {
		t.Fatalf("dedupe ineffective: segment grew %d bytes for 5 duplicate docs", grew)
	}
	if got := coll.Snapshot().Counters[obs.CtrStoreDeduped]; got != 5 {
		t.Fatalf("store.deduped = %d, want 5", got)
	}
	for i := 0; i < s.Len(); i++ {
		got, err := s.XML(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, xml) {
			t.Fatalf("deduped doc %d corrupted", i)
		}
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
	fourth, _ := testDoc(t, "<resume><name val=\"Edsger\"/></resume>")
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
