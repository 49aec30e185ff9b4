// Package repository implements the XML document repository the pipeline
// feeds (paper §1: "integration of topic specific HTML documents into a
// repository of XML documents"). A repository couples a derived DTD with
// the conformant documents, persists both to disk, loads them back, and
// answers label-path queries through the path index. Documents live behind
// the Store interface, so a repository can keep them fully in memory
// (MemStore) or disk-backed with a bounded resident set (DiskStore).
package repository

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"webrev/internal/dom"
	"webrev/internal/dtd"
	"webrev/internal/pathindex"
	"webrev/internal/query"
	"webrev/internal/xmlout"
)

// Repository is a set of DTD-conformant XML documents.
type Repository struct {
	dtd   *dtd.DTD
	store Store
	index *pathindex.Index // built lazily, invalidated by Add
}

// New returns an empty in-memory repository governed by the given DTD.
func New(d *dtd.DTD) *Repository { return NewWithStore(d, NewMemStore()) }

// NewWithStore returns a repository governed by the given DTD whose
// documents live in s. The store may already hold documents (e.g. a
// DiskStore produced by a sharded build); they are trusted to conform.
func NewWithStore(d *dtd.DTD, s Store) *Repository {
	return &Repository{dtd: d, store: s}
}

// DTD returns the governing DTD.
func (r *Repository) DTD() *dtd.DTD { return r.dtd }

// Store returns the backing document store.
func (r *Repository) Store() Store { return r.store }

// Len returns the number of stored documents.
func (r *Repository) Len() int { return r.store.Len() }

// Names returns the stored document names in insertion order.
func (r *Repository) Names() []string {
	out := make([]string, r.store.Len())
	for i := range out {
		out[i] = r.store.Name(i)
	}
	return out
}

// Doc returns the i-th document. On a disk-backed store a read failure
// (torn file, out-of-range index) returns nil; callers that need the error
// read through Store().Doc directly.
func (r *Repository) Doc(i int) *dom.Node {
	d, err := r.store.Doc(i)
	if err != nil {
		return nil
	}
	return d
}

// Add validates doc against the DTD and stores it. Non-conforming
// documents are rejected — map them first (internal/mapping.Conform).
func (r *Repository) Add(name string, doc *dom.Node) error {
	if errs := r.dtd.Validate(doc); len(errs) > 0 {
		return fmt.Errorf("repository: %q does not conform: %v", name, errs[0])
	}
	if err := r.store.Append(name, doc); err != nil {
		return err
	}
	r.index = nil
	return nil
}

// Index returns the label-path index over the stored documents, building
// it on first use, with every posting's Ref.Node set: callers that read
// the trees (webrev query prints each match's tag) use it. Building
// decodes every document once; a DiskStore's are read through EachXML,
// not its LRU, and the index keeps every tree resident through Ref.Node.
// A server needs only postings and vals and builds ServingIndex instead.
// Index returns nil when a document cannot be read or decoded; Query and
// Count return that error.
func (r *Repository) Index() *pathindex.Index {
	ix, _ := r.buildIndex()
	return ix
}

// buildIndex returns the path index, building it if needed. A failed
// build is not kept, so the next call retries it.
func (r *Repository) buildIndex() (*pathindex.Index, error) {
	if r.index != nil {
		return r.index, nil
	}
	docs := make([]*dom.Node, r.store.Len())
	var err error
	if s, ok := r.store.(*DiskStore); ok {
		err = s.EachXML(func(i int, xml []byte) error {
			var err error
			if docs[i], err = xmlout.UnmarshalElement(viewString(xml)); err != nil {
				return fmt.Errorf("repository: disk store decode %d: %w", i, err)
			}
			return nil
		})
	} else {
		for i := 0; i < len(docs) && err == nil; i++ {
			docs[i], err = r.store.Doc(i)
		}
	}
	if err != nil {
		return nil, err
	}
	r.index = pathindex.Build(docs)
	return r.index, nil
}

// ServingIndex returns the path index a server answers from: postings
// that carry Doc, Pos and Val. For a DiskStore it is built straight from
// the stored bytes, in one sequential read of the segment (EachXML) and
// one validating decode pass per document that builds no tree
// (pathindex.BuildXML): no posting holds a Node, and the index keeps the
// segment's bytes, which its vals share, rather than one tree per
// document. Any other store hands out trees (a MemStore holds them), so
// its serving index is Index's, as is an index already built. It fails
// when a document does not read or decode.
func (r *Repository) ServingIndex() (*pathindex.Index, error) {
	s, ok := r.store.(*DiskStore)
	if !ok || r.index != nil {
		return r.buildIndex()
	}
	docs := make([]string, s.Len())
	if err := s.EachXML(func(i int, xml []byte) error {
		docs[i] = viewString(xml)
		return nil
	}); err != nil {
		return nil, err
	}
	ix, err := pathindex.BuildXML(docs)
	if err != nil {
		return nil, fmt.Errorf("repository: disk store: %w", err)
	}
	return ix, nil
}

// Query compiles and evaluates a label-path query (see internal/query for
// the syntax) against the repository.
func (r *Repository) Query(expr string) ([]pathindex.Ref, error) {
	q, ix, err := r.compile(expr)
	if err != nil {
		return nil, err
	}
	return q.Evaluate(ix), nil
}

// Count compiles expr and returns the number of matches without
// materializing them (query.Query.Count streams through the index).
func (r *Repository) Count(expr string) (int, error) {
	q, ix, err := r.compile(expr)
	if err != nil {
		return 0, err
	}
	return q.Count(ix), nil
}

// compile compiles expr and returns it with the index to evaluate it on.
func (r *Repository) compile(expr string) (*query.Query, *pathindex.Index, error) {
	q, err := query.Compile(expr)
	if err != nil {
		return nil, nil, err
	}
	ix, err := r.buildIndex()
	return q, ix, err
}

const dtdFile = "schema.dtd"

// Save writes the repository to dir in the one repository directory
// format: a disk store (segment.blob + index.log) plus schema.dtd, which
// Load and LoadDisk open. Each file is written into a temporary .save-*
// directory inside dir and renamed into place, index.log last, so Save
// never rewrites a file in place — a store already open on dir keeps
// reading the files it opened — and touches no other file in dir.
// Documents are copied out as their canonical XML bytes, so saving a
// disk-backed repository never decodes them.
//
// A directory has one writer. Save first removes the .save-* entries
// that a killed Save left in dir, then creates its own.
func (r *Repository) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(dir)
	for _, e := range entries {
		if err == nil && strings.HasPrefix(e.Name(), ".save-") {
			err = os.RemoveAll(filepath.Join(dir, e.Name()))
		}
	}
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(dir, ".save-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	s, err := CreateDiskStore(tmp, DiskOptions{MaxResidentDocs: -1})
	if err != nil {
		return err
	}
	err = SaveDTDFile(tmp, r.dtd)
	for i := 0; i < r.store.Len() && err == nil; i++ {
		var xml []byte
		if xml, err = r.store.XML(i); err == nil {
			err = s.AppendXML(r.store.Name(i), xml)
		}
	}
	if e := s.Close(); err == nil {
		err = e
	}
	for _, name := range []string{diskSegmentFile, dtdFile, diskIndexFile} {
		if err == nil {
			err = os.Rename(filepath.Join(tmp, name), filepath.Join(dir, name))
		}
	}
	return err
}

// SaveDTDFile writes the rendered DTD into dir under the standard
// schema.dtd name, making a disk store's directory a self-contained
// repository for Load and LoadDisk. The sharded build
// (core.BuildShardedFrom) calls this on its final segment directory.
func SaveDTDFile(dir string, d *dtd.DTD) error {
	return os.WriteFile(filepath.Join(dir, dtdFile), []byte(d.Render()), 0o644)
}

// LoadDisk opens a disk-backed repository: the DTD from dir/schema.dtd and
// the documents from the disk store (index.log + segment.blob) in the same
// directory. The open is strict and read-only: a torn or corrupt index, or
// unindexed segment bytes, is an error, and nothing in dir is written.
// Documents are trusted — not hashed or re-validated, as they were
// validated when the store was built — so opening is O(index size),
// independent of corpus volume.
func LoadDisk(dir string, opts DiskOptions) (*Repository, error) {
	dtdText, err := os.ReadFile(filepath.Join(dir, dtdFile))
	if err != nil {
		return nil, fmt.Errorf("repository: %w", err)
	}
	d, err := dtd.Parse(string(dtdText))
	if err != nil {
		return nil, err
	}
	s, err := openDiskStore(dir, opts, false)
	if err != nil {
		return nil, err
	}
	return NewWithStore(d, s), nil
}

// Load opens the repository in dir (as Save or a sharded build writes it)
// like LoadDisk, then reads it into memory through EachXML: every document
// is checked against its index SHA-256, decoded once, validated against
// the DTD, and indexed. The decoded trees share their runs' bytes, so no
// document is copied. Load closes the directory's files before it
// returns.
func Load(dir string) (*Repository, error) {
	disk, err := LoadDisk(dir, DiskOptions{MaxResidentDocs: -1})
	if err != nil {
		return nil, err
	}
	s := disk.store.(*DiskStore)
	defer s.Close()
	r := New(disk.dtd)
	docs := make([]*dom.Node, s.Len())
	err = s.EachXML(func(i int, xml []byte) error {
		e := s.entries[i]
		var err error
		if sha256.Sum256(xml) != e.sum {
			err = fmt.Errorf("bytes do not match the index SHA-256")
		}
		if err == nil {
			docs[i], err = xmlout.UnmarshalElement(viewString(xml))
		}
		if err == nil {
			err = r.Add(e.name, docs[i])
		}
		if err != nil {
			return fmt.Errorf("repository: %s: document %d: %w", dir, i, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.index = pathindex.Build(docs)
	return r, nil
}
