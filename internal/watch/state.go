package watch

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"webrev/internal/core"
	"webrev/internal/crawler"
	"webrev/internal/repository"
)

// The watch state directory is version 3 of the state manifest: a
// state.json manifest plus one disk store (repository.DiskStore) of the
// live documents. The manifest carries the continuous-operation state —
// the crawl validators (crawler.CrawlState), the cycle ordinal, and the
// previous cycle's derivation (supports, DTD text, per-site conformance)
// that the next drift report diffs against — and names the store whose
// first "stored" entries are the live documents in accumulator-index
// order, each named by its URL. The accumulator is not persisted:
// load re-extracts it from the documents.
//
// A build's version-2 shard checkpoint — what an interrupted BuildStream
// with a CheckpointDir leaves behind, recognised by its range fields —
// seeds a watcher through the same load: its documents are the first
// "stored" entries of the conv/ store beside it, and the crawl state
// starts empty, so the first cycle refetches everything and classifies by
// content hash. Older versions (the watch manifests that listed doc files
// or carried an accumulator, and the version-1 shard checkpoint) are
// rejected, naming their version. The full format contract, including the
// version bump policy, is documented in DESIGN.md ("Versioned persistent
// formats").

// StateVersion is the watch state manifest version this package writes.
const StateVersion = 3

// stateFileName is the manifest filename inside a state directory.
const stateFileName = "state.json"

// storePrefix starts the name of every document store save writes, and
// seedStore is the conv/ store of a build's shard checkpoint.
const (
	storePrefix = "docs-"
	seedStore   = "conv"
)

// storeName names the document store the save of the given cycle writes.
func storeName(cycle int) string { return fmt.Sprintf("%s%06d", storePrefix, cycle) }

// stateManifest is the serialized form of a watch state directory's
// state.json, covering the version it writes (3) and the version-2 shard
// checkpoint fields it seeds from.
type stateManifest struct {
	// Version guards the format; readers reject versions they don't know.
	Version int `json:"version"`
	// Cycle is the number of completed cycles.
	Cycle int `json:"cycle,omitempty"`
	// Crawl holds the per-URL revalidation records.
	Crawl *crawler.CrawlState `json:"crawl,omitempty"`
	// Store names the document store, a directory beside state.json.
	Store string `json:"store,omitempty"`
	// Stored is the number of live documents: the store's first entries.
	Stored int `json:"stored"`
	// Supports is the previous cycle's path → support map.
	Supports map[string]float64 `json:"supports,omitempty"`
	// DTD is the previous cycle's rendered DTD text.
	DTD string `json:"dtd,omitempty"`
	// Sites is the previous cycle's per-site conformance aggregate.
	Sites map[string]siteRate `json:"sites,omitempty"`
	// End is a shard checkpoint's range end; only checkpoints carry it.
	End *int `json:"end,omitempty"`
}

// save flushes the watcher's state to the state directory: every live
// document into a new store, then the manifest naming it atomically (tmp +
// rename), then every other store is removed — the previous one, a seed's
// conv/, or one a killed save left behind. A crash at any point leaves the
// previous manifest and its store intact; a store the removal misses is
// swept by the next save.
func (w *Watcher) save() error {
	dir := w.opt.StateDir
	m := stateManifest{
		Version:  StateVersion,
		Cycle:    w.cycle,
		Crawl:    w.crawl,
		Store:    storeName(w.cycle),
		Stored:   len(w.docs),
		Supports: w.prevSupports,
		DTD:      w.prevDTD,
		Sites:    w.prevSites,
	}
	store, err := repository.CreateDiskStore(filepath.Join(dir, m.Store), repository.DiskOptions{MaxResidentDocs: -1})
	if err != nil {
		return fmt.Errorf("watch: state store: %w", err)
	}
	for _, e := range w.entries() {
		if err == nil {
			err = store.Append(e.doc.Source, e.doc.XML)
		}
	}
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("watch: state store: %w", err)
	}
	data, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return fmt.Errorf("watch: state encode: %w", err)
	}
	tmp := filepath.Join(dir, stateFileName+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("watch: state write: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, stateFileName)); err != nil {
		return fmt.Errorf("watch: state write: %w", err)
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if n := e.Name(); n != m.Store && (n == seedStore || strings.HasPrefix(n, storePrefix)) {
			os.RemoveAll(filepath.Join(dir, n))
		}
	}
	return nil
}

// load restores the watcher from its state directory. A missing manifest is
// a fresh start, not an error. A version-3 manifest or a version-2 shard
// checkpoint names a store; its first Stored documents become the live
// corpus under indices 0..Stored-1, each folded into the fresh
// accumulator.
func (w *Watcher) load() error {
	dir := w.opt.StateDir
	data, err := os.ReadFile(filepath.Join(dir, stateFileName))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("watch: state read: %w", err)
	}
	var m stateManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("watch: state decode: %w", err)
	}
	switch {
	case m.Version == 2 && m.End != nil:
		m.Store = seedStore
	case m.Version != StateVersion:
		return fmt.Errorf("watch: state version %d not supported (want %d or a version-2 shard checkpoint)", m.Version, StateVersion)
	case m.Store != storeName(m.Cycle):
		// The name comes from a file: only the one save writes is opened.
		return fmt.Errorf("watch: state store %q is not cycle %d's", m.Store, m.Cycle)
	}
	store, err := repository.OpenDiskStore(filepath.Join(dir, m.Store), repository.DiskOptions{MaxResidentDocs: -1})
	if err != nil {
		return fmt.Errorf("watch: state store: %w", err)
	}
	defer store.Close()
	if m.Stored < 0 || m.Stored > store.Len() {
		return fmt.Errorf("watch: state store holds %d documents, manifest expects %d", store.Len(), m.Stored)
	}
	for i := 0; i < m.Stored; i++ {
		root, err := store.Doc(i)
		if err != nil {
			return fmt.Errorf("watch: state doc %d: %w", i, err)
		}
		name := store.Name(i)
		if name == "" || w.docs[name] != nil {
			return fmt.Errorf("watch: state doc %d: missing or duplicate name %q", i, name)
		}
		d := &core.Document{Source: name, XML: root}
		w.docs[name] = &docEntry{idx: i, doc: d}
		w.acc.Add(i, w.opt.Pipeline.ExtractPaths(d))
	}
	w.cycle, w.next = m.Cycle, m.Stored
	if m.Crawl != nil && m.Crawl.Pages != nil {
		w.crawl = m.Crawl
	}
	if m.Supports != nil {
		w.prevSupports = m.Supports
	}
	w.prevDTD = m.DTD
	if m.Sites != nil {
		w.prevSites = m.Sites
	}
	return nil
}
