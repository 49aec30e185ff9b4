package repository

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"webrev/internal/pathindex"
	"webrev/internal/schema"
)

// FuzzDiskStoreOpen feeds arbitrary index.log and segment.blob bytes to
// every way of opening a repository directory. None may panic. The
// readers, LoadDisk and Load, must leave both files byte-identical, and
// every document of a successful Load must decode. When LoadDisk opens,
// the serving index fails exactly when Index does, and otherwise agrees
// with it (indexDiff). A store that OpenDiskStore heals must read back
// whole and open strictly afterwards.
func FuzzDiskStoreOpen(f *testing.F) {
	seed := f.TempDir()
	if err := repoOf(f, "doc", 3).Save(seed); err != nil {
		f.Fatal(err)
	}
	read := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join(seed, name))
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	idx, seg, dtdText := read("index.log"), read("segment.blob"), read("schema.dtd")
	f.Add(idx, seg)
	f.Add(append(bytes.Clone(idx), `{"name":"torn","sha":"ab`...), append(bytes.Clone(seg), "<resume>"...))
	lines := strings.SplitAfter(string(idx), "\n")
	lines[2] = "not json at all\n"
	f.Add([]byte(strings.Join(lines, "")), seg)

	f.Fuzz(func(t *testing.T, idx, seg []byte) {
		dir := t.TempDir()
		for name, data := range map[string][]byte{"index.log": idx, "segment.blob": seg, "schema.dtd": dtdText} {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		unchanged := func(reader string) {
			for name, want := range map[string][]byte{"index.log": idx, "segment.blob": seg} {
				if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s changed %s (err %v)", reader, name, err)
				}
			}
		}

		disk, diskErr := LoadDisk(dir, DiskOptions{MaxResidentDocs: 1})
		if diskErr == nil {
			sx, sErr := disk.ServingIndex()
			for i := 0; i < disk.Len(); i++ {
				disk.Store().Doc(i) // a decode error is fine; a panic is not
			}
			ix := disk.Index()
			if (sErr == nil) != (ix != nil) {
				t.Fatalf("ServingIndex error %v, Index built: %v", sErr, ix != nil)
			}
			if sErr == nil {
				if diff := indexDiff(sx, ix); diff != "" {
					t.Fatal(diff)
				}
			}
			disk.Count("//*")
			disk.Store().Close()
		}
		unchanged("LoadDisk")

		if r, err := Load(dir); err == nil {
			if diskErr != nil {
				t.Fatalf("Load accepted a directory LoadDisk rejects: %v", diskErr)
			}
			for i := 0; i < r.Len(); i++ {
				if r.Doc(i) == nil {
					t.Fatalf("Load returned undecodable document %d", i)
				}
			}
		}
		unchanged("Load")

		s, err := OpenDiskStore(dir, DiskOptions{})
		if err != nil {
			return
		}
		for i := 0; i < s.Len(); i++ {
			if _, err := s.XML(i); err != nil {
				t.Fatalf("healed store cannot read document %d: %v", i, err)
			}
		}
		s.Close()
		healed, err := LoadDisk(dir, DiskOptions{})
		if err != nil {
			t.Fatalf("a healed store does not open strictly: %v", err)
		}
		healed.Store().Close()
	})
}

// indexDiff describes how sx, a serving index built from stored bytes,
// differs from ix, the tree index of the same documents, or returns "":
// the same paths, per-label paths, document frequencies and average
// positions, and per path the same ordered (Doc, Pos, Val), with every
// Node nil in sx and set in ix.
func indexDiff(sx, ix *pathindex.Index) string {
	if sx.Docs() != ix.Docs() || !slices.Equal(sx.Paths(), ix.Paths()) {
		return fmt.Sprintf("serving index has %d docs and paths %v; tree index %d and %v", sx.Docs(), sx.Paths(), ix.Docs(), ix.Paths())
	}
	for _, p := range ix.Paths() {
		label := p[strings.LastIndex(p, schema.Sep)+1:]
		if g, w := sx.PathsEndingIn(label), ix.PathsEndingIn(label); !slices.Equal(g, w) {
			return fmt.Sprintf("PathsEndingIn(%s) = %v; tree index %v", label, g, w)
		}
		if g, w := sx.DocFrequency(p), ix.DocFrequency(p); g != w {
			return fmt.Sprintf("DocFrequency(%s) = %d; tree index %d", p, g, w)
		}
		gp, gok := sx.AvgPosition(p)
		wp, wok := ix.AvgPosition(p)
		if gp != wp || gok != wok {
			return fmt.Sprintf("AvgPosition(%s) = %v,%v; tree index %v,%v", p, gp, gok, wp, wok)
		}
		g, w := sx.Lookup(p), ix.Lookup(p)
		if len(g) != len(w) {
			return fmt.Sprintf("Lookup(%s) has %d postings; tree index %d", p, len(g), len(w))
		}
		for i := range w {
			if g[i].Doc != w[i].Doc || g[i].Pos != w[i].Pos || g[i].Val != w[i].Val || g[i].Node != nil || w[i].Node == nil {
				return fmt.Sprintf("Lookup(%s)[%d] = %+v; tree index %+v", p, i, g[i], w[i])
			}
		}
	}
	return ""
}

// FuzzIndexLine holds the exact index-line parser to encoding/json. A line
// parseLine accepts, encoding/json accepts with the same fields. And the
// input read as a document name: the line formatLine (AppendXML's writer)
// writes for it reads back whole, with the name encoding/json gives.
func FuzzIndexLine(f *testing.F) {
	dir := f.TempDir()
	if err := repoOf(f, "doc", 2).Save(dir); err != nil {
		f.Fatal(err)
	}
	idx, err := os.ReadFile(filepath.Join(dir, "index.log"))
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(idx)), "\n") {
		f.Add(line)
	}
	for _, name := range []string{"", `a"b`, `a\b`, "a\x01b\x1f", "\t\n\r", "\x7f", "<a>&amp;", "\u2028\u2029", "\xff\xfe", "a\xc3", "é日本", "\\u0041"} {
		f.Add(name)
	}
	f.Fuzz(func(t *testing.T, in string) {
		if e, err := parseLine(in, math.MaxInt64); err == nil {
			var dl diskLine
			if err := json.Unmarshal([]byte(in), &dl); err != nil {
				t.Fatalf("parseLine accepts %q, encoding/json rejects it: %v", in, err)
			}
			if dl.Name != e.name || dl.Sha != hex.EncodeToString(e.sum[:]) || dl.Off != e.off || dl.Len != e.n {
				t.Fatalf("%q: parseLine read %q %x %d+%d; encoding/json %+v", in, e.name, e.sum, e.off, e.n, dl)
			}
		}
		sum := sha256.Sum256([]byte(in))
		line, err := formatLine(in, sum, int64(len(in)), int32(len(in)))
		if err != nil {
			t.Fatal(err)
		}
		e, err := parseLine(string(line), math.MaxInt64)
		if err != nil {
			t.Fatalf("the line written for name %q, %s, does not read back: %v", in, line, err)
		}
		var dl diskLine
		if err := json.Unmarshal(line, &dl); err != nil {
			t.Fatal(err)
		}
		if e.name != dl.Name || e.sum != sum || e.off != int64(len(in)) || e.n != int32(len(in)) {
			t.Fatalf("the line written for name %q, %s, reads back as %q %x %d+%d; encoding/json reads name %q",
				in, line, e.name, e.sum, e.off, e.n, dl.Name)
		}
	})
}
