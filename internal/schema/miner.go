package schema

import (
	"fmt"
	"sort"
	"strings"

	"webrev/internal/concept"
	"webrev/internal/obs"
)

// DefaultRepThreshold is the sibling count above which an element counts as
// repetitive in a document; "empirical studies prove the value 3 to be
// useful" (§3.3, citing the same observation in XTRACT).
const DefaultRepThreshold = 3

// DefaultMultThreshold is the fraction of documents that must show
// repetition for an element to be declared e+ in the DTD (§3.3 uses 0.5).
const DefaultMultThreshold = 0.5

// Miner discovers the majority schema — the set of frequent label paths —
// from a corpus of path-reduced XML documents.
type Miner struct {
	// SupThreshold is the minimum document-frequency support a path must
	// reach to be frequent (§3.2).
	SupThreshold float64
	// RatioThreshold is the minimum supportRatio(p) =
	// support(p)/support(parent(p)); it keeps deep paths whose absolute
	// support naturally decays (§3.2).
	RatioThreshold float64
	// RepThreshold parameterizes the repetition rule used later by DTD
	// derivation; recorded per schema node here because the statistics live
	// in the miner's input. Default applied when zero.
	RepThreshold int
	// MultThreshold is the fraction of containing documents in which a node
	// must repeat for the repetition rule to mark it (default when zero).
	MultThreshold float64
	// Constraints, when non-nil, prunes the path search space before
	// support is even consulted (§4.2).
	Constraints *concept.Constraints
	// Set, when non-nil, supplies the concept vocabulary Constraints
	// validates against.
	Set *concept.Set
	// Tracer, when non-nil, times Discover under obs.StageMine and records
	// the explored/pruned/frequent path counters.
	Tracer obs.Tracer
}

// Node is one node of the discovered majority schema tree TF.
type Node struct {
	// Label is the node's element label (the last path segment).
	Label   string
	Path    string  // Sep-joined path from the root label
	Support float64 // document frequency of Path
	Ratio   float64 // supportRatio of Path
	AvgPos  float64 // mean child position across documents (ordering rule)
	RepFrac float64 // fraction of containing docs where the node repeats
	// Children holds the node's frequent children, ordered by AvgPos.
	Children []*Node
}

// Schema is the result of discovery: the majority schema tree plus the
// exploration statistics reported in §4.2.
type Schema struct {
	Roots []*Node // one per distinct root label (normally exactly one)
	// Explored counts candidate paths tested against the corpus (only paths
	// with non-zero support are ever generated, matching the paper's "73
	// nodes explored").
	Explored int
	// Pruned counts candidates rejected by constraints before support
	// testing.
	Pruned int
	// Docs is the corpus size |D_XML|.
	Docs int
}

// Discover mines the majority schema from the corpus. It never fails; an
// empty corpus yields an empty schema. It is equivalent to folding every
// document into one Accumulator in slice order and mining the summary with
// DiscoverStats — which is exactly what it does, so the batch and streaming
// build paths share a single mining implementation.
func (m *Miner) Discover(docs []*DocPaths) *Schema {
	a := NewAccumulator(m.RepThreshold)
	for i, d := range docs {
		a.Add(i, d)
	}
	return m.DiscoverStats(a)
}

// DiscoverStats mines the majority schema from accumulated corpus
// statistics — the summary any merge tree of per-shard Accumulators
// produces. It never fails; an empty accumulator yields an empty schema.
func (m *Miner) DiscoverStats(a *Accumulator) *Schema {
	tr := obs.OrNop(m.Tracer)
	sp := tr.StartSpan(obs.StageMine)
	defer sp.End()
	s := &Schema{Docs: a.Docs()}
	if a.Docs() == 0 {
		return s
	}
	defer func() {
		if tr.Enabled() {
			tr.Add(obs.CtrPathsExplored, int64(s.Explored))
			tr.Add(obs.CtrPathsPruned, int64(s.Pruned))
			tr.Add(obs.CtrPathsFrequent, int64(s.CountNodes()))
		}
	}()
	n := float64(a.Docs())

	// Mine over the frozen interned path table: parent/child edges and
	// last labels are resolved once per accumulator generation instead of
	// rebuilding a children map and "parent/label" keys per call. The
	// candidate order (children in label order, roots in label order) is
	// exactly the unfrozen miner's, so Explored/Pruned and the schema are
	// unchanged. DocPaths.Paths is prefix-closed by construction, so the
	// accumulated document frequency is antitone along prefixes.
	t := a.Freeze()

	// The DFS keeps the label stack of the current path, so constraint
	// checks need no Split allocation. The root label (document type,
	// e.g. "resume") is not a concept; constraints apply to the concept
	// path below it (stack[1:]).
	stack := make([]string, 0, 16)
	var build func(id int32, parentSup float64) *Node
	build = func(id int32, parentSup float64) *Node {
		stack = append(stack, t.labels[id])
		defer func() { stack = stack[:len(stack)-1] }()
		if m.Constraints != nil && len(stack) > 1 {
			if !m.Constraints.AllowPath(stack[1:], m.Set) {
				s.Pruned++
				return nil
			}
		}
		s.Explored++
		ag := t.aggs[id]
		contain := ag.docs
		sup := float64(contain) / n
		ratio := 1.0
		if parentSup > 0 {
			ratio = sup / parentSup
		}
		if sup < m.SupThreshold || ratio < m.RatioThreshold {
			return nil
		}
		node := &Node{
			Label:   t.labels[id],
			Path:    t.paths[id],
			Support: sup,
			Ratio:   ratio,
		}
		// Ordering and repetition statistics were aggregated at fold time.
		if ap, ok := ag.avgPos(); ok {
			node.AvgPos = ap
		}
		if contain > 0 {
			node.RepFrac = float64(ag.repDocs) / float64(contain)
		}
		for _, c := range t.children[id] {
			if cn := build(c, sup); cn != nil {
				node.Children = append(node.Children, cn)
			}
		}
		// Ordering rule (§3.3): child elements ordered by average position.
		sort.SliceStable(node.Children, func(i, j int) bool {
			return node.Children[i].AvgPos < node.Children[j].AvgPos
		})
		return node
	}

	for _, r := range t.roots {
		if node := build(r, 0); node != nil {
			s.Roots = append(s.Roots, node)
		}
	}
	return s
}

// Root returns the schema's single root, or nil when the corpus was empty
// or had no frequent root.
func (s *Schema) Root() *Node {
	if len(s.Roots) == 0 {
		return nil
	}
	return s.Roots[0]
}

// Paths returns every frequent path in the schema, sorted.
func (s *Schema) Paths() []string {
	var out []string
	var walk func(n *Node)
	walk = func(n *Node) {
		out = append(out, n.Path)
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, r := range s.Roots {
		walk(r)
	}
	sort.Strings(out)
	return out
}

// Contains reports whether the schema includes the given path.
func (s *Schema) Contains(path string) bool {
	labels := Split(path)
	for _, r := range s.Roots {
		if r.Label != labels[0] {
			continue
		}
		n := r
		ok := true
		for _, l := range labels[1:] {
			var next *Node
			for _, c := range n.Children {
				if c.Label == l {
					next = c
					break
				}
			}
			if next == nil {
				ok = false
				break
			}
			n = next
		}
		if ok {
			return true
		}
	}
	return false
}

// CountNodes returns the number of nodes in the schema tree.
func (s *Schema) CountNodes() int {
	n := 0
	var walk func(*Node)
	walk = func(x *Node) {
		n++
		for _, c := range x.Children {
			walk(c)
		}
	}
	for _, r := range s.Roots {
		walk(r)
	}
	return n
}

// String renders the schema tree with support annotations.
func (s *Schema) String() string {
	var b strings.Builder
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		fmt.Fprintf(&b, "%s%s (sup=%.2f ratio=%.2f rep=%.2f pos=%.2f)\n",
			strings.Repeat("  ", depth), n.Label, n.Support, n.Ratio, n.RepFrac, n.AvgPos)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	for _, r := range s.Roots {
		walk(r, 0)
	}
	return b.String()
}
