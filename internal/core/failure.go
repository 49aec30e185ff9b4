package core

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

// FailureKind classifies how a per-document unit of work failed.
type FailureKind string

// Failure kinds.
const (
	// FailPanic: the stage crashed; the record carries the panic value and
	// stack.
	FailPanic FailureKind = "panic"
	// FailTimeout: the stage exceeded Limits.DocTimeout and was abandoned.
	FailTimeout FailureKind = "timeout"
	// FailError: the stage returned an error (e.g. injected by a chaos
	// test).
	FailError FailureKind = "error"
	// FailLimit: a resource limit degraded the document (truncated
	// conversion). Limit records accompany documents that are kept, not
	// quarantined.
	FailLimit FailureKind = "limit"
)

// FailureRecord describes one per-document failure: which stage, which
// document, and why. Records for quarantined documents (the document was
// dropped) land on Repository.Quarantined; records for degraded documents
// (kept, but truncated by a resource limit) land on Repository.Degraded.
type FailureRecord struct {
	// Stage is the obs stage name where the failure happened
	// (obs.StageConvert, obs.StageMap).
	Stage string `json:"stage"`
	// URL identifies the document: its source name (URL, filename, or
	// generator id).
	URL string `json:"url"`
	// Kind classifies the failure.
	Kind FailureKind `json:"kind"`
	// Err is the panic value, error text, or limit description.
	Err string `json:"err"`
	// Stack is the goroutine stack at the point of a panic; empty for
	// other kinds.
	Stack string `json:"stack,omitempty"`
}

// String renders the record for logs and CLI output.
func (r FailureRecord) String() string {
	return fmt.Sprintf("[%s] %s at %s: %s", r.Kind, r.URL, r.Stage, r.Err)
}

// Limits bounds the resources one document may consume in the pipeline, so
// a single pathological input degrades or quarantines instead of stalling
// a whole build. The zero value is unlimited (the pre-existing behavior).
type Limits struct {
	// MaxDOMNodes caps the parsed DOM node count per document; input past
	// the cap is dropped and the document counted as degraded.
	MaxDOMNodes int
	// MaxDepth caps the parsed DOM element nesting depth per document.
	MaxDepth int
	// MaxTokens caps the tokens the conversion rules inspect per document;
	// text past the cap folds into parent vals uninspected.
	MaxTokens int
	// DocTimeout is the per-document deadline for each of conversion and
	// conformance mapping. A document that exceeds it is abandoned (its
	// worker goroutine is left to finish and be discarded) and
	// quarantined.
	DocTimeout time.Duration
}

// runGuarded executes fn as one isolated per-document unit of work: a
// panic inside fn is recovered into a FailureRecord instead of crashing
// the build, an error return becomes a FailError record, and — when
// timeout > 0 — fn runs on its own goroutine and is abandoned with a
// FailTimeout record if the deadline passes. A nil return means fn
// completed and its results may be used.
//
// On timeout the abandoned goroutine keeps running to completion on its
// own data and is then discarded; the caller must not touch results after
// a timeout record, which the happens-before edge of the result channel
// guarantees race-free.
func runGuarded(stage, source string, timeout time.Duration, fn func() error) *FailureRecord {
	if timeout <= 0 {
		return recoverWrap(stage, source, fn)
	}
	ch := make(chan *FailureRecord, 1)
	go func() {
		ch <- recoverWrap(stage, source, fn)
	}()
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case rec := <-ch:
		return rec
	case <-t.C:
		return &FailureRecord{
			Stage: stage,
			URL:   source,
			Kind:  FailTimeout,
			Err:   fmt.Sprintf("exceeded per-document deadline %v", timeout),
		}
	}
}

// recoverWrap runs fn, converting a panic into a FailPanic record and an
// error into a FailError record.
func recoverWrap(stage, source string, fn func() error) (rec *FailureRecord) {
	defer func() {
		if p := recover(); p != nil {
			rec = &FailureRecord{
				Stage: stage,
				URL:   source,
				Kind:  FailPanic,
				Err:   fmt.Sprint(p),
				Stack: string(debug.Stack()),
			}
		}
	}()
	if err := fn(); err != nil {
		return &FailureRecord{Stage: stage, URL: source, Kind: FailError, Err: err.Error()}
	}
	return nil
}

// QuarantinedDoc is one entry of a QuarantineStore: the failure record
// plus the stable id under which the document's original HTML is kept for
// replay.
type QuarantinedDoc struct {
	// ID is the stable entry id, a hash of the document's URL.
	ID string
	// Record is the failure that sent the document here.
	Record FailureRecord
}

// QuarantineStore is a directory-backed log of quarantined documents. Each
// entry is a pair of files named by a stable id derived from the document
// source: <id>.json (the FailureRecord) and <id>.html (the original
// input), so a document that failed the pipeline can be listed, inspected,
// and replayed after a fix (see the `webrev quarantine` subcommand). Safe
// for concurrent use.
type QuarantineStore struct {
	dir string
	mu  sync.Mutex
}

// OpenQuarantineStore opens (creating if needed) the store at dir.
func OpenQuarantineStore(dir string) (*QuarantineStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("core: empty quarantine directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: quarantine store: %w", err)
	}
	return &QuarantineStore{dir: dir}, nil
}

// Dir returns the store's directory.
func (q *QuarantineStore) Dir() string { return q.dir }

// quarantineID derives the stable file id for a document source name.
func quarantineID(source string) string {
	h := fnv.New64a()
	h.Write([]byte(source))
	return fmt.Sprintf("q-%016x", h.Sum64())
}

// Put persists one quarantined document: its failure record and original
// HTML. A later failure of the same source overwrites the earlier entry.
func (q *QuarantineStore) Put(rec FailureRecord, html string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	id := quarantineID(rec.URL)
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("core: quarantine store: %w", err)
	}
	if err := os.WriteFile(filepath.Join(q.dir, id+".html"), []byte(html), 0o644); err != nil {
		return fmt.Errorf("core: quarantine store: %w", err)
	}
	if err := os.WriteFile(filepath.Join(q.dir, id+".json"), data, 0o644); err != nil {
		return fmt.Errorf("core: quarantine store: %w", err)
	}
	return nil
}

// List returns every quarantined document, sorted by source name.
func (q *QuarantineStore) List() ([]QuarantinedDoc, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	matches, err := filepath.Glob(filepath.Join(q.dir, "q-*.json"))
	if err != nil {
		return nil, fmt.Errorf("core: quarantine store: %w", err)
	}
	var out []QuarantinedDoc
	for _, m := range matches {
		data, err := os.ReadFile(m)
		if err != nil {
			return nil, fmt.Errorf("core: quarantine store: %w", err)
		}
		var rec FailureRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			return nil, fmt.Errorf("core: quarantine store: %s: %w", m, err)
		}
		id := strings.TrimSuffix(filepath.Base(m), ".json")
		out = append(out, QuarantinedDoc{ID: id, Record: rec})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Record.URL < out[j].Record.URL })
	return out, nil
}

// HTML returns the original input of a quarantined document by id.
func (q *QuarantineStore) HTML(id string) (string, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	data, err := os.ReadFile(filepath.Join(q.dir, id+".html"))
	if err != nil {
		return "", fmt.Errorf("core: quarantine store: %w", err)
	}
	return string(data), nil
}

// Remove deletes a quarantined document's record and input by id — the
// bookkeeping of a successful replay.
func (q *QuarantineStore) Remove(id string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := os.Remove(filepath.Join(q.dir, id+".json")); err != nil {
		return fmt.Errorf("core: quarantine store: %w", err)
	}
	// The HTML may already be gone; only the record is authoritative.
	os.Remove(filepath.Join(q.dir, id+".html"))
	return nil
}
