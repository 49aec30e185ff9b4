// Package pathindex implements the index structure the paper sketches in
// §3.3: "for each path and node, the index contains pointers to the
// positions in XML documents that contain that node. Such an index structure
// can easily be built while the set paths is computed for each XML
// document." The index serves both the ordering rule (average child
// positions without re-walking every tree) and the query engine in
// internal/query.
package pathindex

import (
	"slices"
	"sort"

	"webrev/internal/dom"
	"webrev/internal/schema"
)

// Ref is one posting of a label path: an occurrence's document, node and
// child position, plus the node's val, so that a query's predicate reads
// the posting instead of the tree.
type Ref struct {
	Doc  int // index into the corpus the index was built from
	Node *dom.Node
	Pos  int // child position among the parent's element children
	// Val is Node.Val(), read once by Build. It shares the tree's bytes
	// (for a stored document, the decoded blob's), so nothing is copied.
	// It cannot go stale: an indexed tree is never mutated (the Store
	// contract), and Repository.Add drops the index it would invalidate.
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
// modified after Build.
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

// pathEntry is one distinct path while Build runs.
type pathEntry struct {
	path    string
	tag     string
	n       int // elements on the path, counted by pass one
	lastDoc int // pass two's last document, for counting documents
	postings
}

// builder is the state of one Build: the interned paths and, in walk
// order, each element's path id.
type builder struct {
	ids   map[pathKey]int32
	paths []pathEntry
	walk  []int32 // path id of every element, in walk order
	next  int     // pass two's cursor into walk
}

// Build indexes the given document trees. Only element nodes participate.
//
// It runs in two passes so that every posting is written once into memory
// sized for it. Pass one interns each path by (parent path, label),
// records every element's path id in walk order and counts the elements
// per path. Then one slab of exactly the element count is cut into the
// paths' postings, each with its capacity clipped, and pass two fills
// them in the same walk order, summing positions and counting documents.
// A (parent path, label) pair names one path string because labels never
// contain schema.Sep, which schema.Extract's path keys assume too.
func Build(docs []*dom.Node) *Index {
	b := &builder{ids: make(map[pathKey]int32)}
	for _, d := range docs {
		b.intern(d, -1)
	}
	slab := make([]Ref, len(b.walk))
	off := 0
	for i := range b.paths {
		e := &b.paths[i]
		e.refs = slab[off : off : off+e.n]
		e.lastDoc = -1
		off += e.n
	}
	for i, d := range docs {
		b.fill(i, d, 0)
	}
	ix := &Index{
		docs:    len(docs),
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

// intern is pass one over the subtree at n, whose parent's path id is
// parent.
func (b *builder) intern(n *dom.Node, parent int32) {
	if n.Type != dom.ElementNode {
		return
	}
	k := pathKey{parent: parent, tag: n.Tag}
	id, ok := b.ids[k]
	if !ok {
		id = int32(len(b.paths))
		path := n.Tag
		if parent >= 0 {
			path = b.paths[parent].path + schema.Sep + n.Tag
		}
		b.ids[k] = id
		b.paths = append(b.paths, pathEntry{path: path, tag: n.Tag})
	}
	b.paths[id].n++
	b.walk = append(b.walk, id)
	for _, c := range n.Children {
		b.intern(c, id)
	}
}

// fill is pass two: it writes the postings of document doc's subtree at n,
// at child position pos, in pass one's walk order.
func (b *builder) fill(doc int, n *dom.Node, pos int) {
	if n.Type != dom.ElementNode {
		return
	}
	e := &b.paths[b.walk[b.next]]
	b.next++
	e.refs = append(e.refs, Ref{Doc: doc, Node: n, Pos: pos, Val: n.Val()})
	e.posSum += pos
	if e.lastDoc != doc {
		e.docs++
		e.lastDoc = doc
	}
	i := 0
	for _, c := range n.Children {
		if c.Type != dom.ElementNode {
			continue
		}
		b.fill(doc, c, i)
		i++
	}
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
// are counted at Build; a call allocates nothing.
func (ix *Index) DocFrequency(path string) int {
	return ix.byPath[path].docs
}

// AvgPosition returns the mean child position of the path's occurrences —
// the ordering rule's statistic (§3.3), from the position sum Build keeps.
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
