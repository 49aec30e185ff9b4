// Package schema implements majority schema discovery over XML documents
// (paper §3): label-path extraction with multiplicity and position
// recording, and the frequent-path miner driven by support and support
// ratio thresholds, optionally pruned by concept constraints.
package schema

import (
	"strings"

	"webrev/internal/dom"
	"webrev/internal/obs"
)

// Sep joins path components in string keys. Concept names never contain it.
const Sep = "/"

// DocPaths is the path representation of one XML document (§3.2): the set
// of label paths emanating from the root, plus the multiplicity ⟨p,num⟩ and
// child-position statistics needed later by the DTD derivation rules.
type DocPaths struct {
	// Paths holds every label path prefix present in the document, keyed by
	// the Sep-joined label sequence including the root label.
	Paths map[string]bool
	// Mult maps a path to the maximum number of like-labeled siblings any
	// node with that label path has (⟨p,num⟩ of §3.2, max over occurrences).
	Mult map[string]int
	// PosSum accumulates the child positions (index among element children
	// of the parent) of nodes with each label path; divided by PosCount it
	// feeds the ordering rule (§3.3).
	PosSum map[string]float64
	// PosCount counts the occurrences PosSum accumulated per path.
	PosCount map[string]int
	// ChildSeqs records, for each path, the child-label sequences of its
	// occurrences — the raw material for discovering repetitive group
	// patterns like (e1,e2)+ (§3.3's closing remark, after XTRACT).
	ChildSeqs map[string][][]string
	// Nodes is the number of element nodes in the document (scalability
	// metric of §4.3).
	Nodes int
}

// AvgPos returns the average child position of nodes with label path p in
// this document, and whether any were recorded.
func (d *DocPaths) AvgPos(p string) (float64, bool) {
	n := d.PosCount[p]
	if n == 0 {
		return 0, false
	}
	return d.PosSum[p] / float64(n), true
}

// Extract reduces an XML document tree to its label-path representation.
// Only element nodes participate; the root's label is the first component
// of every path.
func Extract(root *dom.Node) *DocPaths {
	d := &DocPaths{
		Paths:     make(map[string]bool),
		Mult:      make(map[string]int),
		PosSum:    make(map[string]float64),
		PosCount:  make(map[string]int),
		ChildSeqs: make(map[string][][]string),
	}
	var walk func(n *dom.Node, prefix string, pos int)
	walk = func(n *dom.Node, prefix string, pos int) {
		if n.Type != dom.ElementNode {
			return
		}
		d.Nodes++
		path := n.Tag
		if prefix != "" {
			path = prefix + Sep + n.Tag
		}
		d.Paths[path] = true
		d.PosSum[path] += float64(pos)
		d.PosCount[path]++
		// Sibling multiplicity: number of element siblings sharing the tag
		// (including n itself).
		if n.Parent != nil {
			num := 0
			for _, s := range n.Parent.Children {
				if s.Type == dom.ElementNode && s.Tag == n.Tag {
					num++
				}
			}
			if num > d.Mult[path] {
				d.Mult[path] = num
			}
		} else {
			d.Mult[path] = 1
		}
		var seq []string
		i := 0
		for _, c := range n.Children {
			if c.Type != dom.ElementNode {
				continue
			}
			seq = append(seq, c.Tag)
			walk(c, path, i)
			i++
		}
		if len(seq) > 0 {
			d.ChildSeqs[path] = append(d.ChildSeqs[path], seq)
		}
	}
	walk(root, "", 0)
	return d
}

// ExtractTraced reduces one document to its label-path representation under
// an obs.StageExtract span, counting the label-path prefixes extracted
// (CtrPathsExtracted). tr may be nil. This is the per-document unit both
// the batch and streaming builds share, so extraction happens exactly once
// per document no matter which path mines it or how often.
func ExtractTraced(root *dom.Node, tr obs.Tracer) *DocPaths {
	tr = obs.OrNop(tr)
	sp := tr.StartSpan(obs.StageExtract)
	d := Extract(root)
	sp.End()
	if tr.Enabled() {
		tr.Add(obs.CtrPathsExtracted, int64(len(d.Paths)))
	}
	return d
}

// Split breaks a Sep-joined path into its labels.
func Split(path string) []string { return strings.Split(path, Sep) }

// Join builds a Sep-joined path from labels.
func Join(labels []string) string { return strings.Join(labels, Sep) }

// ParentPath returns the path with the last label removed, or "" for a
// single-label path.
func ParentPath(path string) string {
	i := strings.LastIndex(path, Sep)
	if i < 0 {
		return ""
	}
	return path[:i]
}

// LastLabel returns the final label of a path.
func LastLabel(path string) string {
	i := strings.LastIndex(path, Sep)
	if i < 0 {
		return path
	}
	return path[i+1:]
}
