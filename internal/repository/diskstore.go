package repository

import (
	"bufio"
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
	"unsafe"

	"webrev/internal/dom"
	"webrev/internal/obs"
	"webrev/internal/xmlout"
)

// DiskStore is the disk-backed Store: documents live as content-addressed
// XML blobs in one append-only segment file, addressed by an append-only
// index of JSON lines, with a bounded LRU of decoded DOMs in front. It is
// what lets a build hold a million-document repository with RSS bounded by
// MaxResidentDocs instead of the corpus size.
//
// On-disk layout (format "webrev-diskstore", version 1 — see DESIGN.md §8
// for the bump policy):
//
//	index.log    — header line `webrev-diskstore v1`, then one JSON line
//	               per document: {"name":…,"sha":hex,"off":N,"len":N}.
//	               Lines only ever append; off/len address segment.blob.
//	               They are read back exactly as written (parseLine).
//	segment.blob — the XML blob bytes, back to back. A blob is written
//	               before its index line, so every complete index line
//	               points at complete data.
//
// Every append writes its own blob; the index line records the blob's
// SHA-256, which Load verifies and DirFingerprint hashes. Stores written
// before appends stopped sharing blobs may hold index lines whose extents
// coincide; they open and read as any other.
//
// Crash safety: OpenDiskStore scans the index, drops a torn final line,
// and truncates segment bytes past the last indexed extent, so a store
// killed mid-append reopens at its last complete document. The sharded
// build additionally truncates to its checkpoint watermark (TruncateDocs).
// Readers (LoadDisk, Load) open strictly and read-only: a torn tail is an
// error there, and reading never writes.
//
// All methods are safe for concurrent use; blob reads use pread
// (File.ReadAt) so readers never contend on a shared file offset. A
// whole-store pass reads the segment in runs through EachXML instead of
// one read per document.
type DiskStore struct {
	dir string
	tr  obs.Tracer

	maxResident int

	mu      sync.Mutex
	idx     *os.File    // index.log, append handle; nil when read-only
	seg     *os.File    // segment.blob: appends at segSize, pread anywhere
	entries []diskEntry // one per document, insertion order
	segSize int64
	lru     lruCache
	idxW    *bufio.Writer
	closed  bool
}

// diskEntry locates one document in the segment.
type diskEntry struct {
	name string
	sum  [sha256.Size]byte
	off  int64
	n    int32
}

// DiskOptions tunes a DiskStore.
type DiskOptions struct {
	// MaxResidentDocs bounds the decoded-DOM LRU: at most this many parsed
	// documents stay resident; further Doc reads evict the least recently
	// used. 0 selects DefaultMaxResidentDocs; negative disables caching
	// entirely (every Doc read decodes from disk).
	MaxResidentDocs int
	// Tracer records the store.hits / store.misses / store.evictions
	// counters. Nil means the no-op tracer.
	Tracer obs.Tracer
}

// DefaultMaxResidentDocs is the decoded-DOM LRU bound when
// DiskOptions.MaxResidentDocs is 0.
const DefaultMaxResidentDocs = 256

const (
	diskIndexFile   = "index.log"
	diskSegmentFile = "segment.blob"
	diskHeader      = "webrev-diskstore v1"
)

// diskLine is the JSON wire form of one index entry.
type diskLine struct {
	Name string `json:"name"`
	Sha  string `json:"sha"`
	Off  int64  `json:"off"`
	Len  int32  `json:"len"`
}

// CreateDiskStore creates (or truncates) a disk store in dir.
func CreateDiskStore(dir string, opts DiskOptions) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("repository: disk store: %w", err)
	}
	idx, err := os.OpenFile(filepath.Join(dir, diskIndexFile), os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("repository: disk store: %w", err)
	}
	seg, err := os.OpenFile(filepath.Join(dir, diskSegmentFile), os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		idx.Close()
		return nil, fmt.Errorf("repository: disk store: %w", err)
	}
	s := newDiskStore(dir, seg, opts)
	s.idx, s.idxW = idx, bufio.NewWriter(idx)
	if _, err := s.idxW.WriteString(diskHeader + "\n"); err != nil {
		s.Close()
		return nil, fmt.Errorf("repository: disk store: %w", err)
	}
	return s, nil
}

// OpenDiskStore opens an existing disk store in dir for reading and further
// appends: the shard-resume path. A torn tail (a crash mid-append) is
// healed: a torn or malformed final index line and unindexed segment bytes
// are truncated away. A malformed or out-of-range line with lines after it
// is corruption and a hard error.
func OpenDiskStore(dir string, opts DiskOptions) (*DiskStore, error) {
	return openDiskStore(dir, opts, true)
}

// openDiskStore opens the store in dir. With heal false it is strict and
// read-only: it opens no file for writing, rejects a torn tail instead of
// truncating it, and the store refuses appends.
func openDiskStore(dir string, opts DiskOptions, heal bool) (*DiskStore, error) {
	data, err := os.ReadFile(filepath.Join(dir, diskIndexFile))
	if err != nil {
		return nil, fmt.Errorf("repository: disk store: %w", err)
	}
	flag := os.O_RDONLY
	if heal {
		flag = os.O_CREATE | os.O_RDWR
	}
	seg, err := os.OpenFile(filepath.Join(dir, diskSegmentFile), flag, 0o644)
	if err != nil {
		return nil, fmt.Errorf("repository: disk store: %w", err)
	}
	s := newDiskStore(dir, seg, opts)
	if err := s.open(data, heal); err != nil {
		s.Close()
		return nil, fmt.Errorf("repository: disk store %s: %w", dir, err)
	}
	return s, nil
}

// open loads the index bytes data over the open segment. A torn tail is an
// error unless heal is set; then index.log opens for appends and the tail
// is truncated away.
func (s *DiskStore) open(data []byte, heal bool) error {
	info, err := s.seg.Stat()
	if err != nil {
		return err
	}
	valid, err := s.scan(data, info.Size())
	switch {
	case err != nil:
		return err
	case heal:
		if s.idx, err = os.OpenFile(filepath.Join(s.dir, diskIndexFile), os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
			return err
		}
		s.idxW = bufio.NewWriter(s.idx)
		return s.truncate(len(s.entries), valid)
	case valid < len(data) || s.segSize < info.Size():
		return fmt.Errorf("torn tail: %d of %d index bytes and %d of %d segment bytes are indexed",
			valid, len(data), s.segSize, info.Size())
	}
	return nil
}

// scan decodes index.log's bytes into the store's entries, whose extents
// must lie inside a segment of segSize bytes, and returns the length of
// the index prefix they span. Only the final line may be torn or malformed
// (a crash mid-append) and is left out; a bad line with lines after it is
// an error.
func (s *DiskStore) scan(data []byte, segSize int64) (int, error) {
	header, rest, ok := strings.Cut(viewString(data), "\n")
	if !ok || header != diskHeader {
		return 0, fmt.Errorf("unsupported index header %q (want %q)", header, diskHeader)
	}
	valid := len(header) + 1
	for len(rest) > 0 {
		line, tail, complete := strings.Cut(rest, "\n")
		e, err := parseLine(line, segSize)
		if err != nil && complete && len(tail) > 0 {
			return 0, fmt.Errorf("index line %d: %v", len(s.entries)+2, err)
		}
		if err != nil || !complete {
			break
		}
		s.entries = append(s.entries, e)
		s.segSize = max(s.segSize, e.off+int64(e.n))
		valid += len(line) + 1
		rest = tail
	}
	return valid, nil
}

// truncate keeps the first n entries and the first idxLen bytes of
// index.log, cuts the segment after the kept entries' last byte so the
// next append continues from a consistent pair, and clears the cache.
func (s *DiskStore) truncate(n, idxLen int) error {
	if err := os.Truncate(filepath.Join(s.dir, diskIndexFile), int64(idxLen)); err != nil {
		return err
	}
	s.entries, s.segSize = s.entries[:n], 0
	for _, e := range s.entries {
		s.segSize = max(s.segSize, e.off+int64(e.n))
	}
	s.lru.clear()
	return s.seg.Truncate(s.segSize)
}

// errMalformed is the error of an index line that is not exactly what
// formatLine writes.
var errMalformed = errors.New(`malformed line; want {"name":…,"sha":"<64 hex>","off":N,"len":N}`)

// parseLine reads one index line exactly as formatLine writes it,
// {"name":…,"sha":"<64 lowercase hex>","off":N,"len":N} with the fields in
// that order and no space, and checks that its extent lies inside a
// segment of segSize bytes. A name without a backslash is taken verbatim,
// so it must be valid UTF-8 with no control byte, as encoding/json would
// read it; only a name that holds an escape goes through encoding/json to
// be unquoted. Any other line is malformed.
func parseLine(line string, segSize int64) (diskEntry, error) {
	var e diskEntry
	rest, ok := strings.CutPrefix(line, `{"name":"`)
	if !ok {
		return e, errMalformed
	}
	end, escaped := 0, false
	for ; end < len(rest) && rest[end] != '"'; end++ {
		if rest[end] == '\\' {
			escaped = true
			end++
		}
	}
	if end >= len(rest) {
		return e, errMalformed
	}
	name := rest[:end]
	switch {
	case escaped:
		quoted := line[len(`{"name":`) : len(`{"name":"`)+end+1]
		if err := json.Unmarshal([]byte(quoted), &e.name); err != nil {
			return e, errMalformed
		}
	case !utf8.ValidString(name) || strings.IndexFunc(name, func(r rune) bool { return r < ' ' }) >= 0:
		return e, errMalformed
	default:
		e.name = strings.Clone(name) // a view would pin the whole index
	}
	rest = rest[end+1:]
	rest, ok = strings.CutPrefix(rest, `,"sha":"`)
	if !ok || len(rest) <= 2*sha256.Size || rest[2*sha256.Size] != '"' {
		return e, errMalformed
	}
	for i := range e.sum {
		hi, lo := unhex(rest[2*i]), unhex(rest[2*i+1])
		if hi < 0 || lo < 0 {
			return e, errMalformed
		}
		e.sum[i] = byte(hi<<4 | lo)
	}
	off, rest, ok := cutNumber(rest[2*sha256.Size+1:], `,"off":`, math.MaxInt64)
	if !ok {
		return e, errMalformed
	}
	n, rest, ok := cutNumber(rest, `,"len":`, math.MaxInt32)
	if !ok || rest != "}" {
		return e, errMalformed
	}
	if off > segSize-n {
		return e, fmt.Errorf("extent %d+%d outside the %d-byte segment", off, n, segSize)
	}
	e.off, e.n = off, int32(n)
	return e, nil
}

// unhex returns the value of a lowercase hex digit, or -1.
func unhex(c byte) int {
	switch {
	case '0' <= c && c <= '9':
		return int(c - '0')
	case 'a' <= c && c <= 'f':
		return int(c - 'a' + 10)
	}
	return -1
}

// cutNumber cuts key and then a non-negative integer at most max, written
// as encoding/json writes it (no sign, no leading zero), from the start of
// s.
func cutNumber(s, key string, max int64) (int64, string, bool) {
	s, ok := strings.CutPrefix(s, key)
	i := 0
	for i < len(s) && '0' <= s[i] && s[i] <= '9' {
		i++
	}
	if !ok || i == 0 || i > 1 && s[0] == '0' {
		return 0, s, false
	}
	n, err := strconv.ParseInt(s[:i], 10, 64)
	if err != nil || n > max {
		return 0, s, false
	}
	return n, s[i:], true
}

// formatLine returns the index line of one document: diskLine as
// encoding/json writes it.
func formatLine(name string, sum [sha256.Size]byte, off int64, n int32) ([]byte, error) {
	return json.Marshal(diskLine{Name: name, Sha: hex.EncodeToString(sum[:]), Off: off, Len: n})
}

// viewString returns b's bytes as a string without copying them. Nothing
// may write b afterwards.
func viewString(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// newDiskStore returns a store over seg with no index handle: read-only
// until its caller opens index.log for appends.
func newDiskStore(dir string, seg *os.File, opts DiskOptions) *DiskStore {
	maxResident := opts.MaxResidentDocs
	if maxResident == 0 {
		maxResident = DefaultMaxResidentDocs
	}
	return &DiskStore{
		dir:         dir,
		tr:          obs.OrNop(opts.Tracer),
		maxResident: maxResident,
		seg:         seg,
		lru:         lruCache{byIdx: make(map[int]*list.Element)},
	}
}

// Dir returns the store's directory.
func (s *DiskStore) Dir() string { return s.dir }

// Len returns the number of stored documents.
func (s *DiskStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Name returns the i-th document's name.
func (s *DiskStore) Name(i int) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entries[i].name
}

// Append marshals doc canonically and stores it under name.
func (s *DiskStore) Append(name string, doc *dom.Node) error {
	return s.AppendXML(name, []byte(xmlout.Marshal(doc)))
}

// AppendXML stores one document's canonical XML bytes (as produced by
// xmlout.Marshal) under name, as a blob of its own.
func (s *DiskStore) AppendXML(name string, xml []byte) error {
	sum := sha256.Sum256(xml)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.idx == nil {
		return fmt.Errorf("repository: disk store: append on a closed or read-only store")
	}
	if _, err := s.seg.WriteAt(xml, s.segSize); err != nil {
		return fmt.Errorf("repository: disk store append: %w", err)
	}
	e := diskEntry{name: name, sum: sum, off: s.segSize, n: int32(len(xml))}
	s.segSize += int64(len(xml))
	line, err := formatLine(name, sum, e.off, e.n)
	if err != nil {
		return fmt.Errorf("repository: disk store append: %w", err)
	}
	if _, err := s.idxW.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("repository: disk store append: %w", err)
	}
	s.entries = append(s.entries, e)
	return nil
}

// Flush pushes buffered index lines to the OS. A flushed store reopens
// with every appended document visible (module an OS crash; Flush does not
// fsync).
func (s *DiskStore) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flush()
}

// flush is Flush under the store mutex; a read-only store has nothing to
// flush.
func (s *DiskStore) flush() error {
	if s.idxW == nil {
		return nil
	}
	return s.idxW.Flush()
}

// XML returns the i-th document's canonical XML bytes, read straight from
// the segment (no cache: callers stream these once, or hash them).
func (s *DiskStore) XML(i int) ([]byte, error) {
	s.mu.Lock()
	if i < 0 || i >= len(s.entries) {
		n := len(s.entries)
		s.mu.Unlock()
		return nil, fmt.Errorf("repository: document %d out of range [0,%d)", i, n)
	}
	e := s.entries[i]
	s.mu.Unlock()
	buf := make([]byte, e.n)
	if _, err := s.seg.ReadAt(buf, e.off); err != nil {
		return nil, fmt.Errorf("repository: disk store read %d: %w", i, err)
	}
	return buf, nil
}

// maxRun bounds one read of EachXML.
const maxRun = 4 << 20

// EachXML calls fn with every document's canonical XML bytes, in index
// order, and stops at fn's first error. It reads the segment sequentially
// in runs of contiguous extents, at most maxRun bytes each (a larger
// document is a run of its own; an extent that does not continue its run,
// shared or out of order, starts the next one). Each run is one read into
// one buffer, and xml is a view of it with its capacity clipped: no
// per-document buffer or copy, and no decoded-document LRU. Nothing
// writes a run after its read, so fn may keep xml, or viewString of it.
func (s *DiskStore) EachXML(fn func(i int, xml []byte) error) error {
	s.mu.Lock()
	entries := s.entries[:len(s.entries):len(s.entries)]
	s.mu.Unlock()
	for lo := 0; lo < len(entries); {
		start, end := entries[lo].off, entries[lo].off+int64(entries[lo].n)
		hi := lo + 1
		for ; hi < len(entries) && entries[hi].off == end && end+int64(entries[hi].n)-start <= maxRun; hi++ {
			end += int64(entries[hi].n)
		}
		run := make([]byte, end-start)
		if _, err := s.seg.ReadAt(run, start); err != nil {
			return fmt.Errorf("repository: disk store read %d: %w", lo, err)
		}
		for i := lo; i < hi; i++ {
			a := entries[i].off - start
			b := a + int64(entries[i].n)
			if err := fn(i, run[a:b:b]); err != nil {
				return err
			}
		}
		lo = hi
	}
	return nil
}

// Doc returns the i-th document's decoded tree, serving repeats from the
// bounded LRU. The returned tree is shared across callers and must not be
// mutated.
func (s *DiskStore) Doc(i int) (*dom.Node, error) {
	s.mu.Lock()
	if d, ok := s.lru.get(i); ok {
		s.mu.Unlock()
		if s.tr.Enabled() {
			s.tr.Add(obs.CtrStoreHits, 1)
		}
		return d, nil
	}
	s.mu.Unlock()
	if s.tr.Enabled() {
		s.tr.Add(obs.CtrStoreMisses, 1)
	}
	xml, err := s.XML(i)
	if err != nil {
		return nil, err
	}
	d, err := xmlout.UnmarshalElement(string(xml))
	if err != nil {
		return nil, fmt.Errorf("repository: disk store decode %d: %w", i, err)
	}
	if s.maxResident > 0 {
		s.mu.Lock()
		evicted := s.lru.put(i, d, s.maxResident)
		s.mu.Unlock()
		if evicted > 0 && s.tr.Enabled() {
			s.tr.Add(obs.CtrStoreEvictions, int64(evicted))
		}
	}
	return d, nil
}

// TruncateDocs drops every document at index >= n, rewinding the store to
// its first n appends — the resume primitive of the sharded build: a
// restarted shard truncates its segment store to the last checkpoint's
// watermark before re-processing. Blob bytes past the kept entries'
// high-water mark are discarded.
func (s *DiskStore) TruncateDocs(n int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n < 0 || n > len(s.entries) {
		return fmt.Errorf("repository: truncate to %d out of range [0,%d]", n, len(s.entries))
	}
	if n == len(s.entries) {
		return nil
	}
	if s.idx == nil {
		return fmt.Errorf("repository: truncate of a read-only store")
	}
	if err := s.idxW.Flush(); err != nil {
		return err
	}
	data, err := os.ReadFile(filepath.Join(s.dir, diskIndexFile))
	if err != nil {
		return err
	}
	idxLen := 0 // the header line and one line per kept entry
	for range n + 1 {
		idxLen += bytes.IndexByte(data[idxLen:], '\n') + 1
	}
	return s.truncate(n, idxLen)
}

// BytesOnDisk returns the store's current footprint: segment bytes plus
// flushed index bytes.
func (s *DiskStore) BytesOnDisk() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flush()
	var total int64 = s.segSize
	if fi, err := os.Stat(filepath.Join(s.dir, diskIndexFile)); err == nil {
		total += fi.Size()
	}
	return total
}

// Close flushes the index and releases both file handles.
func (s *DiskStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.flush()
	if s.idx != nil {
		if e := s.idx.Close(); err == nil {
			err = e
		}
	}
	if e := s.seg.Close(); err == nil {
		err = e
	}
	s.lru.clear()
	return err
}

// lruCache is the decoded-DOM LRU: index → tree, evicting least recently
// used past the bound. Callers hold the store mutex.
type lruCache struct {
	order list.List // front = most recent; values are *lruEntry
	byIdx map[int]*list.Element
}

// lruEntry is one cached decode.
type lruEntry struct {
	idx int
	doc *dom.Node
}

func (c *lruCache) get(i int) (*dom.Node, bool) {
	el, ok := c.byIdx[i]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).doc, true
}

func (c *lruCache) put(i int, d *dom.Node, max int) (evicted int) {
	if el, ok := c.byIdx[i]; ok {
		c.order.MoveToFront(el)
		el.Value.(*lruEntry).doc = d
		return 0
	}
	c.byIdx[i] = c.order.PushFront(&lruEntry{idx: i, doc: d})
	for c.order.Len() > max {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.byIdx, back.Value.(*lruEntry).idx)
		evicted++
	}
	return evicted
}

func (c *lruCache) clear() {
	c.order.Init()
	if len(c.byIdx) > 0 {
		c.byIdx = make(map[int]*list.Element)
	}
}
