package repository

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzDiskStoreOpen feeds arbitrary index.log and segment.blob bytes to
// every way of opening a repository directory. None may panic. The
// readers, LoadDisk and Load, must leave both files byte-identical, and
// every document of a successful Load must decode. A store that
// OpenDiskStore heals must read back whole and open strictly afterwards.
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
			for i := 0; i < disk.Len(); i++ {
				disk.Store().Doc(i) // a decode error is fine; a panic is not
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
