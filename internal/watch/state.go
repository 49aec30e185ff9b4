package watch

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"webrev/internal/core"
	"webrev/internal/crawler"
	"webrev/internal/repository"
	"webrev/internal/schema"
	"webrev/internal/xmlout"
)

// The watch state directory is version 2 of the state manifest: a
// state.json manifest plus one doc-%08d.xml file per live converted
// document, manifest written atomically (tmp + rename), doc files not
// listed in the manifest ignored. The manifest carries the
// continuous-operation state: the crawl validators (crawler.CrawlState),
// the delta accumulator, the cycle ordinal, and the previous cycle's
// derivation (supports, DTD text, per-site conformance) that the next
// drift report diffs against.
//
// A build's version-1 shard checkpoint — what an interrupted BuildStream
// with a CheckpointDir leaves behind — seeds a watcher: it carries the
// build accumulator under "acc", and its documents are the first "stored"
// entries of the conv/ disk segment beside it. The documents are restored,
// their statistics re-extracted into a fresh delta accumulator, and the
// crawl state starts empty, so the first cycle refetches everything and
// classifies by content hash; the first save writes every migrated
// document's doc file. A version-1 manifest without "acc" (the older form
// that listed doc files) is rejected. The full format contract, including
// the version bump policy, is documented in DESIGN.md ("Versioned
// persistent formats").

// StateVersion is the watch state manifest version this package writes.
const StateVersion = 2

// stateFileName is the manifest filename inside a state directory.
const stateFileName = "state.json"

// stateDoc is one live document's manifest entry.
type stateDoc struct {
	Idx int    `json:"idx"`
	URL string `json:"url,omitempty"`
}

// stateManifest is the serialized form of a watch state directory's
// state.json, covering the version it writes (2) and the version-1 shard
// checkpoint fields it migrates from.
type stateManifest struct {
	// Version guards the format; readers reject versions they don't know.
	Version int `json:"version"`
	// Cycle is the number of completed cycles.
	Cycle int `json:"cycle,omitempty"`
	// NextIdx is the next fresh accumulator index.
	NextIdx int `json:"next_idx,omitempty"`
	// Crawl holds the per-URL revalidation records.
	Crawl *crawler.CrawlState `json:"crawl,omitempty"`
	// Acc is the delta accumulator's JSON encoding (version 2), or, in a
	// version-1 shard checkpoint, the build accumulator (discarded on
	// migration).
	Acc json.RawMessage `json:"acc,omitempty"`
	// Stored is a version-1 shard checkpoint's document count: its
	// documents are the first Stored entries of the conv/ segment.
	Stored int `json:"stored,omitempty"`
	// Docs lists the live documents; each entry's XML lives in doc-%08d.xml.
	Docs []stateDoc `json:"docs"`
	// Supports is the previous cycle's path → support map.
	Supports map[string]float64 `json:"supports,omitempty"`
	// DTD is the previous cycle's rendered DTD text.
	DTD string `json:"dtd,omitempty"`
	// Sites is the previous cycle's per-site conformance aggregate.
	Sites map[string]siteRate `json:"sites,omitempty"`
}

// docFile names the converted-XML file of accumulator index idx.
func docFile(dir string, idx int) string {
	return filepath.Join(dir, fmt.Sprintf("doc-%08d.xml", idx))
}

// save flushes the watcher's state to the state directory: dirty document
// files first, then the manifest atomically, then retired document files
// are removed. A crash between the doc writes and the rename leaves the
// previous manifest authoritative — unreferenced doc files are ignored on
// load.
func (w *Watcher) save() error {
	dir := w.opt.StateDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("watch: state dir: %w", err)
	}
	for idx, d := range w.dirty {
		if err := os.WriteFile(docFile(dir, idx), []byte(xmlout.Marshal(d.XML)), 0o644); err != nil {
			return fmt.Errorf("watch: state doc write: %w", err)
		}
	}
	accJSON, err := json.Marshal(w.acc)
	if err != nil {
		return fmt.Errorf("watch: state encode: %w", err)
	}
	m := stateManifest{
		Version:  StateVersion,
		Cycle:    w.cycle,
		NextIdx:  w.next,
		Crawl:    w.crawl,
		Acc:      accJSON,
		Supports: w.prevSupports,
		DTD:      w.prevDTD,
		Sites:    w.prevSites,
	}
	for u, e := range w.docs {
		m.Docs = append(m.Docs, stateDoc{Idx: e.idx, URL: u})
	}
	sort.Slice(m.Docs, func(i, j int) bool { return m.Docs[i].Idx < m.Docs[j].Idx })
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
	for idx := range w.removed {
		os.Remove(docFile(dir, idx))
	}
	w.dirty = make(map[int]*core.Document)
	w.removed = make(map[int]bool)
	return nil
}

// load restores the watcher from its state directory. A missing manifest is
// a fresh start, not an error. Version 2 restores everything; a version-1
// shard checkpoint migrates — documents restore from its conv/ segment,
// statistics re-extract into a fresh delta accumulator, and the crawl
// state starts empty.
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
	if m.Version == 1 && len(m.Acc) > 0 {
		// The checkpoint's own accumulator is not delta-capable; it is
		// discarded and the statistics re-extracted.
		if err := w.loadSegment(filepath.Join(dir, "conv"), m.Stored); err != nil {
			return err
		}
		w.next = m.Stored
		for _, e := range w.docs {
			w.acc.Add(e.idx, w.opt.Pipeline.ExtractPaths(e.doc))
		}
		return nil
	}
	if m.Version != StateVersion {
		return fmt.Errorf("watch: state version %d not supported (want %d or a version-1 shard checkpoint)", m.Version, StateVersion)
	}

	maxIdx := -1
	for _, sd := range m.Docs {
		xml, err := os.ReadFile(docFile(dir, sd.Idx))
		if err != nil {
			return fmt.Errorf("watch: state doc %d: %w", sd.Idx, err)
		}
		root, err := xmlout.UnmarshalElement(string(xml))
		if err != nil {
			return fmt.Errorf("watch: state doc %d: %w", sd.Idx, err)
		}
		if sd.URL == "" || w.docs[sd.URL] != nil {
			return fmt.Errorf("watch: state doc %d: missing or duplicate name %q", sd.Idx, sd.URL)
		}
		w.docs[sd.URL] = &docEntry{idx: sd.Idx, doc: &core.Document{Source: sd.URL, XML: root}}
		if sd.Idx > maxIdx {
			maxIdx = sd.Idx
		}
	}

	w.cycle = m.Cycle
	w.next = m.NextIdx
	if w.next <= maxIdx {
		w.next = maxIdx + 1
	}
	if m.Crawl != nil && m.Crawl.Pages != nil {
		w.crawl = m.Crawl
	}
	if len(m.Acc) > 0 {
		acc := &schema.Accumulator{}
		if err := json.Unmarshal(m.Acc, acc); err != nil {
			return fmt.Errorf("watch: state decode: %w", err)
		}
		if !acc.Delta() {
			return fmt.Errorf("watch: state accumulator is not delta-capable")
		}
		if acc.Docs() != len(w.docs) {
			return fmt.Errorf("watch: state accumulator folds %d documents, manifest lists %d",
				acc.Docs(), len(w.docs))
		}
		w.acc = acc
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

// loadSegment restores the first n documents of the disk segment in dir —
// a version-1 shard checkpoint's conv/ store — as live documents indexed by
// segment position, marked dirty so the next save writes their doc files.
func (w *Watcher) loadSegment(dir string, n int) error {
	seg, err := repository.OpenDiskStore(dir, repository.DiskOptions{MaxResidentDocs: -1})
	if err != nil {
		return fmt.Errorf("watch: state segment: %w", err)
	}
	defer seg.Close()
	if seg.Len() < n {
		return fmt.Errorf("watch: state segment holds %d documents, checkpoint expects %d", seg.Len(), n)
	}
	for i := 0; i < n; i++ {
		root, err := seg.Doc(i)
		if err != nil {
			return fmt.Errorf("watch: state segment doc %d: %w", i, err)
		}
		name := seg.Name(i)
		if name == "" || w.docs[name] != nil {
			return fmt.Errorf("watch: state segment doc %d: missing or duplicate name %q", i, name)
		}
		d := &core.Document{Source: name, XML: root}
		w.docs[name] = &docEntry{idx: i, doc: d}
		w.dirty[i] = d
	}
	return nil
}
