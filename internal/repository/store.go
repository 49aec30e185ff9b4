package repository

import (
	"fmt"

	"webrev/internal/dom"
	"webrev/internal/xmlout"
)

// Store abstracts how a repository holds its documents, so builds can
// choose between the in-memory form (MemStore — every decoded DOM
// resident, the historical behavior) and the disk-backed form (DiskStore —
// content-addressed XML blobs with a bounded cache of decoded DOMs). The
// pipeline's sharded build (core.BuildShardedFrom) writes through this
// interface so a million-document corpus never has to be resident at once.
//
// Contract:
//
//   - Documents are append-only and positional: Append assigns the next
//     index, and Name/Doc/XML address documents by that index in insertion
//     order. Implementations never reorder or drop documents.
//   - XML(i) returns the canonical serialization of document i — exactly
//     the bytes xmlout.Marshal produces for its tree. AppendXML callers
//     must only hand over bytes produced that way; Append enforces it by
//     marshaling itself. This is what makes byte-identity checks between
//     store implementations (and between sharded and single-process
//     builds) meaningful without decoding.
//   - Doc(i) returns the decoded tree. Implementations may cache decoded
//     trees and may return a tree shared with other callers; callers must
//     not mutate it.
//   - Reads (Len, Name, Doc, XML) must be safe to call concurrently.
//     Appends are single-writer: callers serialize Append against both
//     other appends and reads, matching how builds (one writer, readers
//     only after completion) and serving snapshots (read-only) use stores.
//     DiskStore additionally locks internally, so it tolerates concurrent
//     use outright.
type Store interface {
	// Len returns the number of stored documents.
	Len() int
	// Name returns the i-th document's name (its source identifier).
	Name(i int) string
	// Doc returns the i-th document's decoded tree.
	Doc(i int) (*dom.Node, error)
	// XML returns the i-th document's canonical XML serialization.
	XML(i int) ([]byte, error)
	// Append stores doc under name at the next index.
	Append(name string, doc *dom.Node) error
	// Close releases any resources held by the store. A closed store must
	// not be used further.
	Close() error
}

// MemStore is the in-memory Store: every document's decoded tree stays
// resident. It is the default backing of Repository and the right choice
// for corpora that comfortably fit in memory (serving snapshots, tests,
// small builds).
type MemStore struct {
	names []string
	docs  []*dom.Node
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// Len returns the number of stored documents.
func (s *MemStore) Len() int { return len(s.docs) }

// Name returns the i-th document's name.
func (s *MemStore) Name(i int) string { return s.names[i] }

// Doc returns the i-th document's tree.
func (s *MemStore) Doc(i int) (*dom.Node, error) {
	if i < 0 || i >= len(s.docs) {
		return nil, fmt.Errorf("repository: document %d out of range [0,%d)", i, len(s.docs))
	}
	return s.docs[i], nil
}

// XML serializes the i-th document on demand.
func (s *MemStore) XML(i int) ([]byte, error) {
	d, err := s.Doc(i)
	if err != nil {
		return nil, err
	}
	return []byte(xmlout.Marshal(d)), nil
}

// Append stores doc under name.
func (s *MemStore) Append(name string, doc *dom.Node) error {
	s.names = append(s.names, name)
	s.docs = append(s.docs, doc)
	return nil
}

// Close is a no-op for the in-memory store.
func (s *MemStore) Close() error { return nil }
