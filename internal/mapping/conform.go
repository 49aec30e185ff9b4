package mapping

import (
	"fmt"

	"webrev/internal/dom"
	"webrev/internal/dtd"
	"webrev/internal/obs"
)

// EditStats counts the operations Conform performed to make a document
// match the DTD. Cost() is their sum — comparable across schema variants,
// which is how the majority-schema-vs-DataGuide ablation (DESIGN.md E5)
// quantifies the paper's claim that "Data Guides or lower bound schemas do
// not suffice" for repository integration.
type EditStats struct {
	Renamed   int // root renamed to the DTD root
	Inserted  int // placeholder elements inserted for missing required children
	Deleted   int // undeclared elements removed (val folded into parent)
	Merged    int // surplus occurrences merged into the first occurrence
	Reordered int // children moved to satisfy the content-model order
	Unwrapped int // undeclared containers spliced up to expose their children
}

// Cost returns the total number of edit operations.
func (s EditStats) Cost() int {
	return s.Renamed + s.Inserted + s.Deleted + s.Merged + s.Reordered + s.Unwrapped
}

// count returns the field of s that counts operations of kind k, or nil
// for an unknown kind: the one op→count mapping behind the walker's
// recorder, Script.Stats and ConformTraced's per-operation counters.
func (s *EditStats) count(k OpKind) *int {
	switch k {
	case OpRename:
		return &s.Renamed
	case OpInsert:
		return &s.Inserted
	case OpDelete:
		return &s.Deleted
	case OpMerge:
		return &s.Merged
	case OpReorder:
		return &s.Reordered
	case OpUnwrap:
		return &s.Unwrapped
	}
	return nil
}

// Conform transforms a copy of doc so that it validates against d, and
// reports the edits required. The input document is not modified.
//
// The transformation preserves information: deleted elements fold their val
// and text into the parent's val, and merged occurrences concatenate vals
// and adopt children. Use ConformScript to additionally obtain the ordered
// edit operations; both run the same walker over the compiled conformance
// index cached on d (see Precompile), and Conform builds no strings.
func Conform(doc *dom.Node, d *dtd.DTD) (*dom.Node, EditStats) {
	var e edits
	out, _ := conform(doc, d, &e)
	return out, e.stats
}

// ConformTraced is Conform timed under obs.StageMap with the edit-cost and
// per-operation counters recorded on tr. tr may be nil (no-op). Safe for
// concurrent use with a shared Collector: each call records once, under
// the mapping worker running it.
func ConformTraced(doc *dom.Node, d *dtd.DTD, tr obs.Tracer) (*dom.Node, EditStats) {
	tr = obs.OrNop(tr)
	sp := tr.StartSpan(obs.StageMap)
	var e edits
	out, hit := conform(doc, d, &e)
	sp.End()
	stats := e.stats
	if tr.Enabled() {
		tr.Add(obs.CtrMapDocs, 1)
		tr.Add(obs.CtrMapEdits, int64(stats.Cost()))
		if hit {
			tr.Add(obs.CtrMapMemoHits, 1)
		}
		for k := OpRename; k <= OpUnwrap; k++ {
			if n := *stats.count(k); n > 0 {
				tr.Add(obs.MapOpCounter(k.String()), int64(n))
			}
		}
	}
	return out, stats
}

// edits accumulates the operations one conformance pass performs: the
// counts always, and the ordered script only when script is non-nil.
type edits struct {
	stats  EditStats
	script *Script
}

// record counts one operation of kind k applied at n. Only when a script
// is being recorded does it render n's path and call detail, so the
// count-only pass builds no strings.
func (e *edits) record(k OpKind, n *dom.Node, detail func() string) {
	*e.stats.count(k)++
	if e.script != nil {
		*e.script = append(*e.script, Op{Kind: k, Path: pathOf(n), Detail: detail()})
	}
}

// pathOf renders n's element path from its root, e.g. "/resume/education";
// a nil node stands for the document itself, "/".
func pathOf(n *dom.Node) string {
	if n == nil {
		return "/"
	}
	if n.Parent == nil {
		return "/" + n.Tag
	}
	return pathOf(n.Parent) + "/" + n.Tag
}

// conform is the one conformance pass: it clones doc, takes its first
// element (or creates the DTD root for input without one), renames the
// root to the DTD's, and walks the tree. hit reports whether d's compiled
// index was already cached (a memo hit, recorded by ConformTraced).
func conform(doc *dom.Node, d *dtd.DTD, e *edits) (out *dom.Node, hit bool) {
	cd, hit := compiledIndex(d)
	out = doc.Clone()
	if out.Type != dom.ElementNode {
		if el := out.Find(func(n *dom.Node) bool { return n.Type == dom.ElementNode }); el != nil {
			el.Detach()
			out = el
		} else {
			e.record(OpInsert, nil, func() string { return "empty input; created root " + d.RootName })
			out = dom.NewElement(d.RootName)
		}
	}
	if out.Tag != d.RootName && d.RootName != "" {
		e.record(OpRename, out, func() string { return fmt.Sprintf("root %s -> %s", out.Tag, d.RootName) })
		out.Tag = d.RootName
	}
	conformNode(out, cd, e)
	return out, hit
}

// conformNode makes n's children match its declaration, then recurses:
// undeclared children are deleted (leaves) or unwrapped (containers), the
// rest are bucketed by content-model particle in model order, surplus
// occurrences of a One or Opt particle are merged and missing required ones
// inserted.
func conformNode(n *dom.Node, cd *compiledDTD, e *edits) {
	ce := cd.elems[n.Tag]
	if ce == nil {
		return
	}
	model := ce.decl.Children

	for changed := true; changed; {
		changed = false
		for _, c := range n.Children {
			if c.Type != dom.ElementNode {
				continue
			}
			if _, ok := ce.pos[c.Tag]; ok {
				continue
			}
			n.AppendVal(c.Val())
			if len(c.Children) == 0 {
				n.AppendVal(c.Text)
				c.Detach()
				e.record(OpDelete, n, func() string { return fmt.Sprintf("undeclared <%s> removed, val folded", c.Tag) })
			} else {
				c.SpliceUp()
				e.record(OpUnwrap, n, func() string { return fmt.Sprintf("undeclared container <%s> spliced up", c.Tag) })
			}
			changed = true
			break
		}
	}

	buckets := make([][]*dom.Node, len(model))
	kids := make([]*dom.Node, len(n.Children))
	copy(kids, n.Children)
	orderChanged := false
	prevPos := -1
	for _, c := range kids {
		if c.Type != dom.ElementNode {
			if c.Type == dom.TextNode {
				n.AppendVal(c.Text)
			}
			c.Detach()
			continue
		}
		p := ce.pos[c.Tag]
		if p < prevPos {
			orderChanged = true
		}
		prevPos = p
		c.Detach()
		buckets[p] = append(buckets[p], c)
	}
	if orderChanged {
		e.record(OpReorder, n, func() string { return "children reordered to content-model order" })
	}

	for i, spec := range model {
		b := buckets[i]
		switch spec.Repeat {
		case dtd.One, dtd.Opt:
			if len(b) > 1 {
				head := b[0]
				for _, extra := range b[1:] {
					head.AppendVal(extra.Val())
					head.AdoptChildren(extra)
					e.record(OpMerge, n, func() string {
						return fmt.Sprintf("surplus <%s> merged into first occurrence", spec.Name)
					})
				}
				b = b[:1]
			}
			if len(b) == 0 && spec.Repeat == dtd.One {
				b = append(b, dom.NewElement(spec.Name))
				e.record(OpInsert, n, func() string { return fmt.Sprintf("required <%s> inserted", spec.Name) })
			}
		case dtd.Plus:
			if len(b) == 0 {
				b = append(b, dom.NewElement(spec.Name))
				e.record(OpInsert, n, func() string { return fmt.Sprintf("required <%s> inserted", spec.Name) })
			}
		}
		for _, c := range b {
			n.AppendChild(c)
		}
	}

	for _, c := range n.Children {
		conformNode(c, cd, e)
	}
}
