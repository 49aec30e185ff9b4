// Package pathindex implements the index structure the paper sketches in
// §3.3: "for each path and node, the index contains pointers to the
// positions in XML documents that contain that node. Such an index structure
// can easily be built while the set paths is computed for each XML
// document." The index serves both the ordering rule (average child
// positions without re-walking every tree) and the query engine in
// internal/query.
package pathindex

import (
	"fmt"
	"slices"
	"sort"

	"webrev/internal/dom"
	"webrev/internal/schema"
	"webrev/internal/xmlout"
)

// Ref is one posting of a label path: an occurrence's document, node and
// child position, plus the node's val, so that a query's predicate reads
// the posting instead of the tree.
type Ref struct {
	Doc int // index into the corpus the index was built from
	// Node is the occurrence's element in the tree Build indexed. It is
	// nil in an index BuildXML built from stored bytes, which keeps no
	// tree: read Val, Doc and Pos instead.
	Node *dom.Node
	Pos  int // child position among the parent's element children
	// Val is the node's val, read once at build time. It shares the
	// document's bytes (a decoded tree's, or the stored bytes BuildXML
	// read), so nothing is copied. It cannot go stale: an indexed tree is
	// never mutated (the Store contract), and Repository.Add drops the
	// index it would invalidate.
	Val string
}

// postings are one path's occurrences in indexing order (document, then
// document order) with the aggregates the index answers without a walk.
type postings struct {
	refs   []Ref
	docs   int // distinct documents among refs
	posSum int // sum of refs' Pos
}

// Index maps label paths to their occurrences across a corpus. It is not
// modified after Build or BuildXML.
type Index struct {
	docs    int
	byPath  map[string]postings
	byLabel map[string][]string // last label -> sorted full paths
}

// pathKey identifies a path by its parent path's id and its last label, so
// that a path's string is built once however often it occurs.
type pathKey struct {
	parent int32 // -1 for a root
	tag    string
}

// pathEntry is one distinct path while an index is built.
type pathEntry struct {
	path    string
	tag     string
	n       int // elements on the path
	lastDoc int // the last document filled, for counting documents
	postings
}

// builder is the one index builder behind Build and BuildXML. It interns
// each path by (parent path, label) and counts its elements; cut then
// cuts every path's postings from one slab of exactly the element count,
// each with its capacity clipped, and add fills them in walk order,
// summing positions and counting documents. A (parent path, label) pair
// names one path string because labels never contain schema.Sep, which
// schema.Extract's path keys assume too.
type builder struct {
	ids   map[pathKey]int32
	paths []pathEntry
}

// intern returns the id of the path whose parent path is parent and whose
// last label is tag, and counts one element on it.
func (b *builder) intern(parent int32, tag string) int32 {
	if b.ids == nil {
		b.ids = make(map[pathKey]int32)
	}
	k := pathKey{parent: parent, tag: tag}
	id, ok := b.ids[k]
	if !ok {
		id = int32(len(b.paths))
		path := tag
		if parent >= 0 {
			path = b.paths[parent].path + schema.Sep + tag
		}
		b.ids[k] = id
		b.paths = append(b.paths, pathEntry{path: path, tag: tag})
	}
	b.paths[id].n++
	return id
}

// cut gives every interned path its postings, cut from one slab of
// exactly the element count.
func (b *builder) cut() {
	n := 0
	for i := range b.paths {
		n += b.paths[i].n
	}
	slab := make([]Ref, n)
	off := 0
	for i := range b.paths {
		e := &b.paths[i]
		e.refs = slab[off : off : off+e.n]
		e.lastDoc = -1
		off += e.n
	}
}

// add appends one posting to path id's.
func (b *builder) add(id int32, r Ref) {
	e := &b.paths[id]
	e.refs = append(e.refs, r)
	e.posSum += r.Pos
	if e.lastDoc != r.Doc {
		e.docs++
		e.lastDoc = r.Doc
	}
}

// index returns the filled index over docs documents.
func (b *builder) index(docs int) *Index {
	ix := &Index{
		docs:    docs,
		byPath:  make(map[string]postings, len(b.paths)),
		byLabel: make(map[string][]string),
	}
	for i := range b.paths {
		e := &b.paths[i]
		ix.byPath[e.path] = e.postings
		ix.byLabel[e.tag] = append(ix.byLabel[e.tag], e.path)
	}
	for _, paths := range ix.byLabel {
		sort.Strings(paths)
	}
	return ix
}

// treeWalk feeds the builder from document trees in two passes: the first
// interns every element's path and records its id in walk order, the
// second fills the postings in the same order.
type treeWalk struct {
	builder
	walk []int32 // path id of every element, in walk order
	next int     // pass two's cursor into walk
}

// Build indexes the given document trees. Only element nodes participate,
// and every posting holds its node.
func Build(docs []*dom.Node) *Index {
	var w treeWalk
	for _, d := range docs {
		w.intern1(d, -1)
	}
	w.cut()
	for i, d := range docs {
		w.fill(i, d, 0)
	}
	return w.index(len(docs))
}

// intern1 is pass one over the subtree at n, whose parent's path id is
// parent.
func (w *treeWalk) intern1(n *dom.Node, parent int32) {
	if n.Type != dom.ElementNode {
		return
	}
	id := w.intern(parent, n.Tag)
	w.walk = append(w.walk, id)
	for _, c := range n.Children {
		w.intern1(c, id)
	}
}

// fill is pass two: it writes the postings of document doc's subtree at n,
// at child position pos, in pass one's walk order.
func (w *treeWalk) fill(doc int, n *dom.Node, pos int) {
	if n.Type != dom.ElementNode {
		return
	}
	w.add(w.walk[w.next], Ref{Doc: doc, Node: n, Pos: pos, Val: n.Val()})
	w.next++
	i := 0
	for _, c := range n.Children {
		if c.Type != dom.ElementNode {
			continue
		}
		w.fill(doc, c, i)
		i++
	}
}

// BuildXML indexes documents stored as Marshal's canonical bytes (DESIGN.md
// §8), each decoded by xmlout.EachElement, so it accepts exactly the
// documents xmlout.UnmarshalElement decodes and gives the index Build gives
// for their trees, except that no tree is built: every posting's Node is
// nil, and its Val is a substring of its document unless the val holds a
// reference. It fails on the first document that does not decode.
//
// Decoding twice would cost more than remembering one pass, so BuildXML
// records each element's (path id, document, position, val) once, in walk
// order, and fills the postings from that record. The record grows in
// fixed blocks, which are never copied.
func BuildXML(docs []string) (*Index, error) {
	var w xmlWalk
	record := w.element
	for i, src := range docs {
		w.doc = int32(i)
		if err := xmlout.EachElement(src, record); err != nil {
			return nil, fmt.Errorf("pathindex: document %d: %w", i, err)
		}
	}
	w.cut()
	for _, block := range w.blocks {
		for _, e := range block {
			w.add(e.id, Ref{Doc: int(e.doc), Pos: int(e.pos), Val: e.val})
		}
	}
	return w.index(len(docs)), nil
}

// recordBlock is the number of elements one block of BuildXML's record
// holds.
const recordBlock = 4096

// xmlWalk feeds the builder from xmlout.EachElement's reports.
type xmlWalk struct {
	builder
	doc    int32
	open   []frame        // the current element's ancestors and itself
	blocks [][]occurrence // the record, in walk order
}

// frame is one open element: its path id and its element children so far.
type frame struct {
	id   int32
	kids int32
}

// occurrence is one recorded element.
type occurrence struct {
	id, doc, pos int32
	val          string
}

// element records the next element of the current document, at depth.
func (w *xmlWalk) element(depth int, name, val string) {
	parent, pos := int32(-1), int32(0)
	if depth > 0 {
		f := &w.open[depth-1]
		parent, pos = f.id, f.kids
		f.kids++
	}
	id := w.intern(parent, name)
	w.open = append(w.open[:depth], frame{id: id})
	if k := len(w.blocks); k == 0 || len(w.blocks[k-1]) == recordBlock {
		w.blocks = append(w.blocks, make([]occurrence, 0, recordBlock))
	}
	last := &w.blocks[len(w.blocks)-1]
	*last = append(*last, occurrence{id: id, doc: w.doc, pos: pos, val: val})
}

// Docs returns the number of indexed documents.
func (ix *Index) Docs() int { return ix.docs }

// Paths returns every indexed label path, sorted.
func (ix *Index) Paths() []string {
	out := make([]string, 0, len(ix.byPath))
	for p := range ix.byPath {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Lookup returns all occurrences of the exact label path, in indexing order
// (document, then document order).
func (ix *Index) Lookup(path string) []Ref { return ix.byPath[path].refs }

// PathsEndingIn returns the indexed paths whose final label is label,
// sorted — the expansion step for descendant ("//") queries.
func (ix *Index) PathsEndingIn(label string) []string {
	return slices.Clone(ix.byLabel[label])
}

// DocFrequency returns the number of distinct documents containing the
// path — the support numerator of §3.2 served from the index. Frequencies
// are counted at build time; a call allocates nothing.
func (ix *Index) DocFrequency(path string) int {
	return ix.byPath[path].docs
}

// AvgPosition returns the mean child position of the path's occurrences —
// the ordering rule's statistic (§3.3), from the position sum kept at
// build time.
func (ix *Index) AvgPosition(path string) (float64, bool) {
	return ix.byPath[path].avgPosition()
}

// avgPosition is the mean of the postings' positions. Dividing the integer
// sum once gives the same float64 as summing the positions as floats:
// every partial sum is an integer below 2^53, so each is exact.
func (p postings) avgPosition() (float64, bool) {
	if len(p.refs) == 0 {
		return 0, false
	}
	return float64(p.posSum) / float64(len(p.refs)), true
}
