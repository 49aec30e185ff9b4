package schema

import (
	"fmt"
	"sort"
	"strings"
)

// Drift reporting: the continuous build (internal/watch) re-derives the
// majority schema after every recrawl cycle and compares it to the previous
// cycle's. The comparison is a structured, versioned JSON artifact — the
// drift report — naming the frequent paths that appeared, vanished or
// shifted support, the DTD elements whose content models changed, and any
// per-site conformance regression. The schema package owns the report types
// and the pure diff functions; the watch loop fills in the document-delta
// and site rows it alone can observe. The DTD diff operates on rendered DTD
// text because this package must not import internal/dtd (dtd imports
// schema).

// DriftVersion is the version stamped into every drift report. Bump it on
// any incompatible change to the report's JSON shape (see DESIGN.md,
// "Versioned persistent formats").
const DriftVersion = 1

// DefaultMinSupportShift is the support change below which a frequent path
// present in both schemas is not reported as shifted.
const DefaultMinSupportShift = 0.1

// PathSupport names one frequent path and its document support, used for
// paths present in only one of the two schemas being compared.
type PathSupport struct {
	// Path is the Sep-joined label path.
	Path string `json:"path"`
	// Support is the path's document frequency in the schema that contains
	// it (the new schema for appearing paths, the old one for vanished).
	Support float64 `json:"support"`
}

// PathShift records a frequent path present in both schemas whose support
// moved by at least the minimum shift.
type PathShift struct {
	// Path is the Sep-joined label path.
	Path string `json:"path"`
	// OldSupport is the path's support in the previous cycle's schema.
	OldSupport float64 `json:"old_support"`
	// NewSupport is the path's support in the current cycle's schema.
	NewSupport float64 `json:"new_support"`
}

// DTDChange records one element whose declaration changed between cycles.
type DTDChange struct {
	// Element is the element name.
	Element string `json:"element"`
	// Old is the previous cycle's <!ELEMENT> declaration (whitespace
	// normalized).
	Old string `json:"old"`
	// New is the current cycle's declaration.
	New string `json:"new"`
}

// DTDDiff is an element-level diff of two rendered DTDs.
type DTDDiff struct {
	// Added holds declarations of elements only the new DTD declares.
	Added []string `json:"added,omitempty"`
	// Removed holds declarations of elements only the old DTD declares.
	Removed []string `json:"removed,omitempty"`
	// Changed holds elements declared by both whose content models differ.
	Changed []DTDChange `json:"changed,omitempty"`
}

// Empty reports whether the diff records no element-level change.
func (d *DTDDiff) Empty() bool {
	return len(d.Added) == 0 && len(d.Removed) == 0 && len(d.Changed) == 0
}

// DocDelta counts how a recrawl cycle classified the corpus's documents.
type DocDelta struct {
	// Unchanged counts pages revalidated without refetch (HTTP 304 or an
	// identical content hash).
	Unchanged int `json:"unchanged"`
	// Changed counts pages whose content changed and were refolded.
	Changed int `json:"changed"`
	// New counts pages first seen this cycle.
	New int `json:"new"`
	// Vanished counts pages retired this cycle (gone from the site).
	Vanished int `json:"vanished"`
	// Failed counts pages whose refetch or reconversion failed; their
	// previous version is kept (served stale) rather than retired.
	Failed int `json:"failed,omitempty"`
}

// SiteConformance is one site's conformance-rate row across a cycle. The
// watch loop computes one row per source host.
type SiteConformance struct {
	// Site is the source host (or corpus label) the row aggregates.
	Site string `json:"site"`
	// OldDocs counts the site's mapped documents before the cycle.
	OldDocs int `json:"old_docs"`
	// NewDocs counts the site's mapped documents after the cycle.
	NewDocs int `json:"new_docs"`
	// OldRate is the site's mean conformance rate before the cycle.
	OldRate float64 `json:"old_rate"`
	// NewRate is the site's mean conformance rate after the cycle.
	NewRate float64 `json:"new_rate"`
}

// Drift is the report one watch cycle emits: what the recrawl saw, and how
// the derived schema and DTD moved. It marshals deterministically (all
// slices sorted) so chaos goldens can compare reports byte-for-byte.
type Drift struct {
	// Version is DriftVersion at emit time.
	Version int `json:"version"`
	// Cycle is the watch loop's cycle ordinal (1-based; the first cycle
	// seeds the corpus, so its report diffs against an empty schema).
	Cycle int `json:"cycle"`
	// Docs classifies the cycle's page-level changes.
	Docs DocDelta `json:"docs"`
	// NewPaths lists frequent paths present only in the new schema.
	NewPaths []PathSupport `json:"new_paths,omitempty"`
	// VanishedPaths lists frequent paths present only in the old schema.
	VanishedPaths []PathSupport `json:"vanished_paths,omitempty"`
	// ShiftedPaths lists paths in both schemas whose support moved by at
	// least the configured minimum shift.
	ShiftedPaths []PathShift `json:"shifted_paths,omitempty"`
	// DTD is the element-level diff of the rendered DTDs.
	DTD DTDDiff `json:"dtd"`
	// Sites holds per-site conformance rows, sorted by site.
	Sites []SiteConformance `json:"sites,omitempty"`
}

// Shifted reports whether the cycle moved the derived schema or DTD at
// all — the condition under which the watch loop persists and surfaces the
// report prominently.
func (d *Drift) Shifted() bool {
	return len(d.NewPaths) > 0 || len(d.VanishedPaths) > 0 ||
		len(d.ShiftedPaths) > 0 || !d.DTD.Empty()
}

// Summary renders a one-line human-readable digest of the report.
func (d *Drift) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycle %d: %d unchanged, %d changed, %d new, %d vanished",
		d.Cycle, d.Docs.Unchanged, d.Docs.Changed, d.Docs.New, d.Docs.Vanished)
	if d.Docs.Failed > 0 {
		fmt.Fprintf(&b, ", %d failed", d.Docs.Failed)
	}
	if !d.Shifted() {
		b.WriteString("; schema stable")
		return b.String()
	}
	fmt.Fprintf(&b, "; schema drift: +%d/-%d/~%d paths, DTD +%d/-%d/~%d elements",
		len(d.NewPaths), len(d.VanishedPaths), len(d.ShiftedPaths),
		len(d.DTD.Added), len(d.DTD.Removed), len(d.DTD.Changed))
	return b.String()
}

// SupportMap flattens the schema into a path → support map, the input to
// DiffSupports.
func (s *Schema) SupportMap() map[string]float64 {
	out := make(map[string]float64)
	if s == nil {
		return out
	}
	var walk func(n *Node)
	walk = func(n *Node) {
		out[n.Path] = n.Support
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, r := range s.Roots {
		walk(r)
	}
	return out
}

// DiffSupports compares two path → support maps (SupportMap of the old and
// new schemas). Paths present on one side only are reported with their
// support; paths on both sides are reported as shifted when |new-old| >=
// minShift (<= 0 selects DefaultMinSupportShift). All three slices come
// back sorted by path.
func DiffSupports(old, cur map[string]float64, minShift float64) (added, vanished []PathSupport, shifted []PathShift) {
	if minShift <= 0 {
		minShift = DefaultMinSupportShift
	}
	for p, sup := range cur {
		if _, ok := old[p]; !ok {
			added = append(added, PathSupport{Path: p, Support: sup})
		}
	}
	for p, sup := range old {
		ns, ok := cur[p]
		if !ok {
			vanished = append(vanished, PathSupport{Path: p, Support: sup})
			continue
		}
		if diff := ns - sup; diff >= minShift || -diff >= minShift {
			shifted = append(shifted, PathShift{Path: p, OldSupport: sup, NewSupport: ns})
		}
	}
	sort.Slice(added, func(i, j int) bool { return added[i].Path < added[j].Path })
	sort.Slice(vanished, func(i, j int) bool { return vanished[i].Path < vanished[j].Path })
	sort.Slice(shifted, func(i, j int) bool { return shifted[i].Path < shifted[j].Path })
	return added, vanished, shifted
}

// DiffDTDText computes the element-level diff of two rendered DTDs
// (dtd.DTD.Render output). Only <!ELEMENT> declarations participate —
// <!ATTLIST> lines are uniform boilerplate in this system — and runs of
// whitespace collapse before comparison, because Render pads element names
// to the longest name in each DTD and that padding shifts when unrelated
// elements come and go. Output slices are sorted by element name.
func DiffDTDText(oldText, newText string) DTDDiff {
	oldDecls := parseElementDecls(oldText)
	newDecls := parseElementDecls(newText)
	var d DTDDiff
	for name, decl := range newDecls {
		if _, ok := oldDecls[name]; !ok {
			d.Added = append(d.Added, decl)
		}
	}
	for name, decl := range oldDecls {
		nd, ok := newDecls[name]
		if !ok {
			d.Removed = append(d.Removed, decl)
			continue
		}
		if nd != decl {
			d.Changed = append(d.Changed, DTDChange{Element: name, Old: decl, New: nd})
		}
	}
	sort.Strings(d.Added)
	sort.Strings(d.Removed)
	sort.Slice(d.Changed, func(i, j int) bool { return d.Changed[i].Element < d.Changed[j].Element })
	return d
}

// parseElementDecls extracts whitespace-normalized <!ELEMENT> declarations
// keyed by element name.
func parseElementDecls(text string) map[string]string {
	out := make(map[string]string)
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 3 || fields[0] != "<!ELEMENT" {
			continue
		}
		out[fields[1]] = strings.Join(fields, " ")
	}
	return out
}
