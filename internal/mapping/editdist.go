// Package mapping implements the Document Mapping Component referenced by
// the paper (§5, refs [11][13]): it "converts non-conforming XML documents
// using a tree-edit distance algorithm so that they eventually conform to
// the derived DTD and can easily be integrated into an XML document
// repository". The package provides the Zhang–Shasha ordered tree edit
// distance and a DTD-directed conformance transformation.
//
// # Cost model
//
// TreeDistance charges unit cost per elementary operation:
//
//	operation            cost  applied to
//	insert node          1     every node of the target absent from the source
//	delete node          1     every node of the source absent from the target
//	rename (labels ≠)    1     a matched pair with differing labels
//	rename (labels =)    0     a matched pair with equal labels
//
// Element nodes compare by tag and text nodes by "#text:"-prefixed
// content; comments and doctypes are ignored entirely. The conformance
// transformation (Conform/ConformScript) reports its own EditStats whose
// Cost() is the count of rename/insert/delete/merge/reorder/unwrap
// operations it performed — comparable across schema variants, but not the
// same scale as TreeDistance (a merge or unwrap bundles several elementary
// edits).
//
// # Complexity and degenerate input
//
// Zhang–Shasha runs in O(|T1|·|T2|·min(depth,leaves)²) time and
// O(|T1|·|T2|) space — quadratic in document size even for flat trees, so
// callers mapping untrusted corpora should bound input size (see
// core.Limits). Degenerate trees are safe: nil roots are treated as empty
// trees (distance = the other side's node count), and
// single-node and comment-only trees take the n==0/m==0 fast path or the
// ordinary recurrence without special cases.
//
// # Performance model
//
// TreeDistance runs once per document and schema variant in experiment E5,
// so the implementation is allocation-free at steady state:
//
//   - Every call borrows a pooled scratch (sync.Pool) holding the two
//     postorder representations, the interned label table, and the flat
//     td/fd distance matrices, instead of allocating [][]float64 rows.
//   - During the single postorder traversal each node's label is interned
//     to a dense int32 id (text nodes hash their content without building
//     the "#text:" key) and an FNV-1a structure hash of its subtree —
//     label plus child hashes — is memoized per node.
//   - Structurally identical trees short-circuit to distance 0: equal root
//     hashes are verified with an exact O(n) shape comparison (hash
//     collisions can never produce a wrong distance).
//   - The kernel compares interned label ids directly; the property and
//     fuzz tests pin it to a textbook reference that compares label
//     strings over fresh matrices.
package mapping

import (
	"sync"
	"sync/atomic"

	"webrev/internal/dom"
)

// treeMemoHits counts identical-tree short-circuits across all TreeDistance
// calls, so a test can tell the short-circuit from the full DP.
var treeMemoHits atomic.Int64

// TreeDistance computes the unit-cost Zhang–Shasha ordered tree edit
// distance between the trees rooted at t1 and t2. Element and text nodes
// participate; comments and doctypes are ignored. A nil root is an empty
// tree: the distance is the node count of the other side, and two nil
// roots are at distance 0.
func TreeDistance(t1, t2 *dom.Node) float64 {
	sc := scratchPool.Get().(*zsScratch)
	defer scratchPool.Put(sc)
	clear(sc.labels)
	sc.a.build(t1, sc)
	sc.b.build(t2, sc)
	return zhangShasha(&sc.a, &sc.b, sc)
}

// labelKey distinguishes text-node content from a same-spelled element tag
// without building the "#text:"-prefixed string.
type labelKey struct {
	text bool
	s    string
}

// ordered is the postorder representation Zhang–Shasha works on, extended
// with the per-node interned label ids and memoized subtree structure
// hashes computed during the same traversal.
type ordered struct {
	nodes []*dom.Node // postorder
	lmld  []int       // leftmost leaf descendant index per node
	keyrs []int       // keyroots, ascending
	lab   []int32     // interned label id per node (scratch-scoped)
	hash  []uint64    // FNV-1a structure hash of the subtree at each node
}

// zsScratch is the pooled per-call state: both postorder forms, the shared
// label intern table, the flat td/fd matrices, and the keyroot seen-marks.
type zsScratch struct {
	a, b   ordered
	labels map[labelKey]int32
	td, fd []float64
	seen   []bool
}

var scratchPool = sync.Pool{
	New: func() any { return &zsScratch{labels: make(map[labelKey]int32, 64)} },
}

func (sc *zsScratch) intern(n *dom.Node) int32 {
	k := labelKey{text: n.Type == dom.TextNode}
	if k.text {
		k.s = n.Text
	} else {
		k.s = n.Tag
	}
	id, ok := sc.labels[k]
	if !ok {
		id = int32(len(sc.labels))
		sc.labels[k] = id
	}
	return id
}

// FNV-1a constants; the structure hash mixes a node-kind marker, the label
// bytes, and each participating child's subtree hash in order.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func hashByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime
}

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

func hashUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
	return h
}

// build (re)computes the postorder representation of root into o, reusing
// the slices from the previous call. Labels are interned through sc so both
// trees of a distance computation share one id space.
func (o *ordered) build(root *dom.Node, sc *zsScratch) {
	o.nodes = o.nodes[:0]
	o.lmld = o.lmld[:0]
	o.keyrs = o.keyrs[:0]
	o.lab = o.lab[:0]
	o.hash = o.hash[:0]
	if root == nil {
		return
	}
	var walk func(n *dom.Node) (lm int, h uint64)
	walk = func(n *dom.Node) (int, uint64) {
		lm := -1
		h := fnvOffset
		if n.Type == dom.TextNode {
			h = hashByte(h, 2)
			h = hashString(h, n.Text)
		} else {
			h = hashByte(h, 1)
			h = hashString(h, n.Tag)
		}
		for _, c := range n.Children {
			if c.Type != dom.ElementNode && c.Type != dom.TextNode {
				continue
			}
			l, ch := walk(c)
			if lm == -1 {
				lm = l
			}
			h = hashUint64(h, ch)
		}
		o.nodes = append(o.nodes, n)
		idx := len(o.nodes) - 1
		if lm == -1 {
			lm = idx
		}
		o.lmld = append(o.lmld, lm)
		o.lab = append(o.lab, sc.intern(n))
		o.hash = append(o.hash, h)
		return lm, h
	}
	walk(root)
	// Keyroots: the highest postorder index per distinct lmld value.
	// Scanning from the root down with a seen-mark per lmld value finds
	// them without a map; the collected list is descending, so reverse it.
	n := len(o.nodes)
	seen := sc.seen
	if cap(seen) < n {
		seen = make([]bool, n)
		sc.seen = seen
	}
	seen = seen[:n]
	for i := range seen {
		seen[i] = false
	}
	for i := n - 1; i >= 0; i-- {
		if !seen[o.lmld[i]] {
			seen[o.lmld[i]] = true
			o.keyrs = append(o.keyrs, i)
		}
	}
	for i, j := 0, len(o.keyrs)-1; i < j; i, j = i+1, j-1 {
		o.keyrs[i], o.keyrs[j] = o.keyrs[j], o.keyrs[i]
	}
}

// sameShape reports exact structural equality of the two postorder forms:
// equal interned labels and equal leftmost-leaf structure at every index.
// It is the collision-proof verification behind the hash short-circuit.
func sameShape(a, b *ordered) bool {
	if len(a.nodes) != len(b.nodes) {
		return false
	}
	for i := range a.lab {
		if a.lab[i] != b.lab[i] || a.lmld[i] != b.lmld[i] {
			return false
		}
	}
	return true
}

func zhangShasha(a, b *ordered, sc *zsScratch) float64 {
	n, m := len(a.nodes), len(b.nodes)
	if n == 0 || m == 0 {
		return float64(n + m)
	}
	// Memoized-subtree short-circuit: identical root hashes, verified by an
	// exact shape comparison, mean distance 0 — no matrices touched.
	if n == m && a.hash[n-1] == b.hash[m-1] && sameShape(a, b) {
		treeMemoHits.Add(1)
		return 0
	}
	td := growFloats(&sc.td, n*m)
	fd := growFloats(&sc.fd, (n+1)*(m+1))
	for _, i := range a.keyrs {
		for _, j := range b.keyrs {
			treedist(a, b, i, j, td, fd)
		}
	}
	return td[(n-1)*m+m-1]
}

// growFloats returns (*s)[:want], reallocating only when capacity is
// insufficient — the pooled-matrix reuse path.
func growFloats(s *[]float64, want int) []float64 {
	if cap(*s) < want {
		*s = make([]float64, want)
	}
	return (*s)[:want]
}

// treedist fills the td entries for the subtree pair rooted at postorder i
// of a and j of b: the classic forest-distance recurrence at unit cost,
// comparing interned label ids.
func treedist(a, b *ordered, i, j int, td, fd []float64) {
	m := len(b.nodes)
	m1 := m + 1
	li, lj := a.lmld[i], b.lmld[j]
	fd[li*m1+lj] = 0
	for di := li; di <= i; di++ {
		fd[(di+1)*m1+lj] = fd[di*m1+lj] + 1
	}
	for dj := lj; dj <= j; dj++ {
		fd[li*m1+dj+1] = fd[li*m1+dj] + 1
	}
	for di := li; di <= i; di++ {
		alm, alab := a.lmld[di], a.lab[di]
		row := di * m1
		row1 := row + m1
		tdrow := di * m
		for dj := lj; dj <= j; dj++ {
			if alm == li && b.lmld[dj] == lj {
				ren := fd[row+dj]
				if alab != b.lab[dj] {
					ren += 1
				}
				v := min3(fd[row+dj+1]+1, fd[row1+dj]+1, ren)
				fd[row1+dj+1] = v
				td[tdrow+dj] = v
			} else {
				v := min3(
					fd[row+dj+1]+1,
					fd[row1+dj]+1,
					fd[alm*m1+b.lmld[dj]]+td[tdrow+dj],
				)
				fd[row1+dj+1] = v
			}
		}
	}
}

func min3(a, b, c float64) float64 {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
