package repository

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"webrev/internal/dom"
	"webrev/internal/dtd"
	"webrev/internal/mapping"
	"webrev/internal/schema"
)

func el(tag string, children ...*dom.Node) *dom.Node {
	return dom.Elem(tag, nil, children...)
}

func elv(tag, val string, children ...*dom.Node) *dom.Node {
	return dom.Elem(tag, []string{"val", val}, children...)
}

func testDTD(t testing.TB) *dtd.DTD {
	t.Helper()
	mk := func() *schema.DocPaths {
		return schema.Extract(el("resume",
			el("contact"),
			el("education", el("institution"), el("degree")),
			el("education", el("institution"), el("degree")),
			el("education", el("institution"), el("degree")),
		))
	}
	s := (&schema.Miner{SupThreshold: 0.5}).Discover([]*schema.DocPaths{mk(), mk()})
	return dtd.FromSchema(s, dtd.Options{})
}

func conformingDoc(val string) *dom.Node {
	return el("resume",
		elv("contact", val),
		el("education", elv("institution", "UC "+val), el("degree")),
	)
}

func TestAddValidates(t *testing.T) {
	r := New(testDTD(t))
	if err := r.Add("good", conformingDoc("a")); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 || r.Names()[0] != "good" {
		t.Fatalf("len=%d names=%v", r.Len(), r.Names())
	}
	bad := el("resume", el("zzz"))
	if err := r.Add("bad", bad); err == nil {
		t.Fatal("non-conforming doc accepted")
	}
	if r.Len() != 1 {
		t.Fatal("rejected doc stored")
	}
}

func TestAddAfterConform(t *testing.T) {
	d := testDTD(t)
	r := New(d)
	messy := el("resume", el("education", el("degree"), el("institution")), el("junk"))
	fixed, _ := mapping.Conform(messy, d)
	if err := r.Add("fixed", fixed); err != nil {
		t.Fatal(err)
	}
}

func TestQuery(t *testing.T) {
	r := New(testDTD(t))
	for _, v := range []string{"alpha", "beta", "gamma"} {
		if err := r.Add(v, conformingDoc(v)); err != nil {
			t.Fatal(err)
		}
	}
	refs, err := r.Query(`//institution[@val~"beta"]`)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 1 || refs[0].Node.Val() != "UC beta" {
		t.Fatalf("refs = %+v", refs)
	}
	all, err := r.Query("/resume/education/institution")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("matches = %d", len(all))
	}
	if _, err := r.Query("not a query"); err == nil {
		t.Fatal("bad query accepted")
	}
}

func TestCount(t *testing.T) {
	r := New(testDTD(t))
	for _, v := range []string{"alpha", "beta", "gamma"} {
		if err := r.Add(v, conformingDoc(v)); err != nil {
			t.Fatal(err)
		}
	}
	for expr, want := range map[string]int{
		"/resume/education/institution": 3,
		`//institution[@val~"beta"]`:    1,
		"//nope":                        0,
	} {
		got, err := r.Count(expr)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("Count(%s) = %d, want %d", expr, got, want)
		}
	}
	if _, err := r.Count("not a query"); err == nil {
		t.Fatal("bad query accepted")
	}
}

func TestIndexInvalidatedByAdd(t *testing.T) {
	r := New(testDTD(t))
	r.Add("a", conformingDoc("a"))
	before := r.Index().Docs()
	r.Add("b", conformingDoc("b"))
	if got := r.Index().Docs(); got != before+1 {
		t.Fatalf("index not rebuilt: %d docs", got)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r := New(testDTD(t))
	for _, v := range []string{"one", "two"} {
		if err := r.Add(v+".html", conformingDoc(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 2 {
		t.Fatalf("loaded %d docs", loaded.Len())
	}
	if got := strings.Join(loaded.Names(), ","); got != "one.html,two.html" {
		t.Fatalf("names = %q", got)
	}
	for i := 0; i < r.Len(); i++ {
		if !r.Doc(i).Equal(loaded.Doc(i)) {
			t.Fatalf("doc %d differs:\n%s\n%s", i, r.Doc(i).String(), loaded.Doc(i).String())
		}
	}
	if loaded.DTD().Len() != r.DTD().Len() {
		t.Fatal("DTD lost declarations")
	}
	// Queries work on the loaded repository.
	refs, err := loaded.Query(`//contact[@val="one"]`)
	if err != nil || len(refs) != 1 {
		t.Fatalf("query on loaded repo: %v, %d refs", err, len(refs))
	}
	// The same directory opens disk-backed, too.
	disk, err := LoadDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Store().Close()
	if got := strings.Join(disk.Names(), ","); got != "one.html,two.html" {
		t.Fatalf("LoadDisk names = %q", got)
	}
}

// TestSaveWritesOnlyTheStore pins the repository directory format: a
// disk store plus schema.dtd and nothing else, also after a second Save
// replaces the first.
func TestSaveWritesOnlyTheStore(t *testing.T) {
	dir := t.TempDir()
	for _, n := range []int{3, 1} {
		if err := repoOf(t, "doc", n).Save(dir); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		if got := strings.Join(names, " "); got != "index.log schema.dtd segment.blob" {
			t.Fatalf("saved directory holds %q", got)
		}
	}
	if r, err := Load(dir); err != nil || r.Len() != 1 {
		t.Fatalf("reload after the second save: %v", err)
	}
}

// TestSaveRemovesStaleTemp: a Save killed mid-write leaves its .save-*
// directory, a full copy of the repository, behind; the next Save removes
// it and changes no other file.
func TestSaveRemovesStaleTemp(t *testing.T) {
	dir := t.TempDir()
	r := repoOf(t, "doc", 3)
	if err := r.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("not the store's"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirBytes(t, dir)
	stale := filepath.Join(dir, ".save-x")
	if err := os.Mkdir(stale, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stale, "segment.blob"), []byte("a killed Save's copy"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := r.Save(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("%s survived Save (stat: %v)", stale, err)
	}
	if _, err := Load(dir); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dirBytes(t, dir), before) {
		t.Fatal("Save changed a file other than the stale temporary directory")
	}
}

// repoOf returns a repository of n conforming documents named prefix-i.
func repoOf(t testing.TB, prefix string, n int) *Repository {
	t.Helper()
	r := New(testDTD(t))
	for i := 0; i < n; i++ {
		if err := r.Add(fmt.Sprintf("%s-%d", prefix, i), conformingDoc(fmt.Sprintf("%s %d", prefix, i))); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// dirBytes returns the contents of every file in dir, by name.
func dirBytes(t testing.TB, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}

// editFile rewrites one file of dir through edit.
func editFile(t testing.TB, dir, name string, edit func([]byte) []byte) {
	t.Helper()
	path := filepath.Join(dir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, edit(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// rejectLoad requires Load to fail on dir, with an error containing want,
// and to leave every file in dir byte-identical.
func rejectLoad(t *testing.T, dir, want string) {
	t.Helper()
	before := dirBytes(t, dir)
	_, err := Load(dir)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Load error = %v, want one containing %q", err, want)
	}
	if !reflect.DeepEqual(dirBytes(t, dir), before) {
		t.Fatal("a failed Load changed the directory")
	}
}

func TestLoadErrors(t *testing.T) {
	rejectLoad(t, filepath.Join(t.TempDir(), "missing"), "no such file")

	// saved returns a fresh directory holding a valid 3-document repository.
	saved := func() string {
		dir := t.TempDir()
		if err := repoOf(t, "doc", 3).Save(dir); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	// lines rewrites index.log through an edit of its lines; line 0 is the
	// header, and the file's final newline leaves an empty last element.
	lines := func(dir string, edit func([]string) []string) {
		editFile(t, dir, "index.log", func(b []byte) []byte {
			return []byte(strings.Join(edit(strings.Split(string(b), "\n")), "\n"))
		})
	}

	dir := saved()
	editFile(t, dir, "schema.dtd", func([]byte) []byte { return []byte("<!GARBAGE>") })
	rejectLoad(t, dir, "")

	// The retired file-per-document layout fails on the missing index.
	dir = t.TempDir()
	os.WriteFile(filepath.Join(dir, "schema.dtd"), []byte("<!ELEMENT r (#PCDATA)>"), 0o644)
	os.WriteFile(filepath.Join(dir, "manifest.txt"), []byte("doc-00000.xml\tx\n"), 0o644)
	os.WriteFile(filepath.Join(dir, "doc-00000.xml"), []byte("<r/>"), 0o644)
	rejectLoad(t, dir, "index.log")

	dir = saved()
	lines(dir, func(l []string) []string { return append(l[:3], `{"name":"torn","sha":"ab`) })
	rejectLoad(t, dir, "torn tail")

	dir = saved()
	lines(dir, func(l []string) []string { l[3] = "not json at all"; return l })
	rejectLoad(t, dir, "torn tail")

	dir = saved()
	lines(dir, func(l []string) []string { l[2] = "not json at all"; return l })
	rejectLoad(t, dir, "index line 3")

	dir = saved()
	lines(dir, func(l []string) []string { l[2] = strings.Replace(l[2], `"len":`, `"len":9`, 1); return l })
	rejectLoad(t, dir, "outside the")

	dir = saved()
	editFile(t, dir, "segment.blob", func(b []byte) []byte { return append(b, "<resume/>"...) })
	rejectLoad(t, dir, "torn tail")

	// A blob whose bytes changed but still decode and conform.
	dir = saved()
	editFile(t, dir, "segment.blob", func(b []byte) []byte {
		return bytes.Replace(b, []byte("doc 1"), []byte("doc X"), 1)
	})
	rejectLoad(t, dir, "SHA-256")
}

func TestLoadRevalidates(t *testing.T) {
	// Hand-craft a repository directory whose document violates the DTD.
	dir := t.TempDir()
	s, err := CreateDiskStore(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append("x", el("r", el("b"))); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(dir, "schema.dtd"),
		[]byte("<!ELEMENT r ((#PCDATA), a)>\n<!ELEMENT a (#PCDATA)>"), 0o644)
	rejectLoad(t, dir, "does not conform")
}

// TestIndexReportsUnreadableDocument: a disk-backed repository with a blob
// that no longer decodes has no index, and Query and Count return the
// decode error instead of panicking.
func TestIndexReportsUnreadableDocument(t *testing.T) {
	dir := t.TempDir()
	if err := repoOf(t, "doc", 3).Save(dir); err != nil {
		t.Fatal(err)
	}
	editFile(t, dir, "segment.blob", func(b []byte) []byte { return bytes.Repeat([]byte("x"), len(b)) })
	r, err := LoadDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Store().Close()
	if r.Index() != nil {
		t.Fatal("Index built over an undecodable document")
	}
	if _, err := r.Query("//contact"); err == nil {
		t.Fatal("Query over an undecodable document succeeded")
	}
	if _, err := r.Count("//contact"); err == nil {
		t.Fatal("Count over an undecodable document succeeded")
	}
}
