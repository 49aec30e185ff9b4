// Package dtd derives a Document Type Definition from a discovered majority
// schema (paper §3.3). A DTD adds what a path-set schema lacks: a content
// model per element with child ordering (the ordering rule, by average child
// position) and repetition (the repetition rule, by sibling multiplicity),
// plus an optional-element extension. The package also renders DTD text and
// validates documents against the derived content models.
package dtd

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"webrev/internal/dom"
	"webrev/internal/schema"
)

// Repeat is the occurrence indicator of a child in a content model.
type Repeat int

// Occurrence indicators.
const (
	One  Repeat = iota // exactly once
	Plus               // e+
	Opt                // e?
	Star               // e*
)

// Suffix returns the DTD occurrence suffix.
func (r Repeat) Suffix() string {
	switch r {
	case Plus:
		return "+"
	case Opt:
		return "?"
	case Star:
		return "*"
	}
	return ""
}

// Child is one particle of an element's content model: a named child
// element with its occurrence indicator.
type Child struct {
	Name   string
	Repeat Repeat
}

// Element declares one element type and its content model. Every element
// accepts character data (the val attribute carries the original text), so
// content models take the form ((#PCDATA), c1, c2+, ...) or (#PCDATA) for
// leaves — matching the paper's §4.4 sample DTD.
type Element struct {
	Name     string
	Children []Child
}

// IsLeaf reports whether the element has pure (#PCDATA) content.
func (e *Element) IsLeaf() bool { return len(e.Children) == 0 }

// DTD is a set of element declarations with a designated root.
type DTD struct {
	RootName string
	Elements []*Element // root first, then first-appearance order
	index    map[string]*Element

	// compiled caches a consumer-built derived index of this DTD (the
	// conformance tables of internal/mapping — see mapping.Precompile).
	// Lock-free so parallel mapping workers share one instance. The cache
	// assumes the declarations are immutable once the first consumer runs.
	compiled atomic.Value
}

// Compiled returns the cached derived index stored by StoreCompiled, or nil
// if none has been stored yet. The dynamic type is owned by the consumer
// that stored it.
func (d *DTD) Compiled() any { return d.compiled.Load() }

// StoreCompiled caches a derived index on the DTD. Concurrent stores are
// safe; later stores win. Values must be of a consistent dynamic type per
// process (an atomic.Value constraint).
func (d *DTD) StoreCompiled(v any) { d.compiled.Store(v) }

// Options configures DTD derivation.
type Options struct {
	// MultThreshold is the fraction of documents that must repeat an
	// element for it to be declared e+ (§3.3 suggests 0.5).
	MultThreshold float64
	// OptionalBelow, when > 0, marks children whose support ratio falls
	// below it as optional (e?) — the extension §3.3 mentions ("the same
	// multiplicity information can be used to introduce optional
	// elements"). Zero keeps the paper's default: no optional elements,
	// because every path in TF is frequent.
	OptionalBelow float64
}

// FromSchema derives a DTD from a majority schema. Content models for an
// element name appearing at several paths are unified: children are merged,
// Plus dominates One, and ordering follows the mean of average positions.
func FromSchema(s *schema.Schema, opts Options) *DTD {
	if opts.MultThreshold <= 0 {
		opts.MultThreshold = schema.DefaultMultThreshold
	}
	d := &DTD{index: make(map[string]*Element)}
	root := s.Root()
	if root == nil {
		return d
	}
	d.RootName = root.Label

	type childStat struct {
		repeat   Repeat
		posSum   float64
		posN     int
		declared int // how many schema nodes contribute this child
	}
	// name -> ordered child stats
	stats := make(map[string]map[string]*childStat)
	order := []string{}

	var walk func(n *schema.Node)
	walk = func(n *schema.Node) {
		if _, ok := stats[n.Label]; !ok {
			stats[n.Label] = make(map[string]*childStat)
			order = append(order, n.Label)
		}
		m := stats[n.Label]
		for _, c := range n.Children {
			cs := m[c.Label]
			if cs == nil {
				cs = &childStat{}
				m[c.Label] = cs
			}
			cs.posSum += c.AvgPos
			cs.posN++
			cs.declared++
			rep := One
			if c.RepFrac > opts.MultThreshold {
				rep = Plus
			}
			if opts.OptionalBelow > 0 && c.Ratio < opts.OptionalBelow {
				if rep == Plus {
					rep = Star
				} else {
					rep = Opt
				}
			}
			cs.repeat = mergeRepeat(cs.repeat, rep)
			walk(c)
		}
	}
	walk(root)

	for _, name := range order {
		el := &Element{Name: name}
		m := stats[name]
		var names []string
		for cn := range m {
			names = append(names, cn)
		}
		sort.Slice(names, func(i, j int) bool {
			a, b := m[names[i]], m[names[j]]
			pa, pb := a.posSum/float64(a.posN), b.posSum/float64(b.posN)
			if pa != pb {
				return pa < pb
			}
			return names[i] < names[j]
		})
		for _, cn := range names {
			el.Children = append(el.Children, Child{Name: cn, Repeat: m[cn].repeat})
		}
		d.Elements = append(d.Elements, el)
		d.index[name] = el
	}
	d.demoteRequirementCycles()
	return d
}

// demoteRequirementCycles makes the DTD finitely satisfiable. A chain of
// required children that revisits an element name (e.g. a date entry whose
// content model requires a nested date, as produced by date-range tokens)
// would demand an infinite tree; the cycle-closing edges are demoted to
// optional (One→Opt, Plus→Star). Traversal order is declaration order, so
// the result is deterministic.
func (d *DTD) demoteRequirementCycles() {
	onPath := make(map[string]bool)
	var visit func(name string)
	visit = func(name string) {
		el := d.index[name]
		if el == nil {
			return
		}
		onPath[name] = true
		for i := range el.Children {
			c := &el.Children[i]
			if c.Repeat == Opt || c.Repeat == Star {
				continue // optional edges cannot force infinite growth
			}
			if onPath[c.Name] {
				if c.Repeat == Plus {
					c.Repeat = Star
				} else {
					c.Repeat = Opt
				}
				continue
			}
			visit(c.Name)
		}
		onPath[name] = false
	}
	for _, el := range d.Elements {
		visit(el.Name)
	}
}

// mergeRepeat unifies two occurrence indicators for the same child seen in
// different contexts: repetition and optionality both survive merging.
func mergeRepeat(a, b Repeat) Repeat {
	rep := a == Plus || a == Star || b == Plus || b == Star
	opt := a == Opt || a == Star || b == Opt || b == Star
	switch {
	case rep && opt:
		return Star
	case rep:
		return Plus
	case opt:
		return Opt
	default:
		return One
	}
}

// Element returns the declaration for name, or nil.
func (d *DTD) Element(name string) *Element { return d.index[name] }

// Len returns the number of element declarations.
func (d *DTD) Len() int { return len(d.Elements) }

// Render emits the DTD text in the style of the paper's §4.4 sample:
//
//	<!ELEMENT resume ((#PCDATA), contact+, objective, education+)>
//	<!ELEMENT contact (#PCDATA)>
func (d *DTD) Render() string {
	var b strings.Builder
	width := 0
	for _, e := range d.Elements {
		if len(e.Name) > width {
			width = len(e.Name)
		}
	}
	for _, e := range d.Elements {
		fmt.Fprintf(&b, "<!ELEMENT %-*s ", width, e.Name)
		if e.IsLeaf() {
			b.WriteString("(#PCDATA)>")
		} else {
			b.WriteString("((#PCDATA)")
			for _, c := range e.Children {
				b.WriteString(", ")
				b.WriteString(c.Name)
				b.WriteString(c.Repeat.Suffix())
			}
			b.WriteString(")>")
		}
		b.WriteByte('\n')
		fmt.Fprintf(&b, "<!ATTLIST %-*s val CDATA #IMPLIED>\n", width, e.Name)
	}
	return b.String()
}

// RenderElements renders only the <!ELEMENT> lines (the form shown in the
// paper).
func (d *DTD) RenderElements() string {
	var lines []string
	for _, l := range strings.Split(d.Render(), "\n") {
		if strings.HasPrefix(l, "<!ELEMENT") {
			lines = append(lines, l)
		}
	}
	return strings.Join(lines, "\n") + "\n"
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

// ValidationError describes one conformance violation.
type ValidationError struct {
	Path string // element path from the root
	Msg  string
}

func (e *ValidationError) Error() string { return e.Path + ": " + e.Msg }

// Validate checks a document tree against the DTD. It returns every
// violation found (nil means the document conforms).
func (d *DTD) Validate(root *dom.Node) []*ValidationError {
	var errs []*ValidationError
	if root.Type != dom.ElementNode {
		errs = append(errs, &ValidationError{Path: "/", Msg: "root is not an element"})
		return errs
	}
	if root.Tag != d.RootName {
		errs = append(errs, &ValidationError{
			Path: "/" + root.Tag,
			Msg:  fmt.Sprintf("root element is %q, DTD expects %q", root.Tag, d.RootName),
		})
	}
	d.validateNode(root, "/"+root.Tag, &errs)
	return errs
}

// Conforms reports whether the document validates with no errors.
func (d *DTD) Conforms(root *dom.Node) bool { return len(d.Validate(root)) == 0 }

func (d *DTD) validateNode(n *dom.Node, path string, errs *[]*ValidationError) {
	decl := d.index[n.Tag]
	if decl == nil {
		*errs = append(*errs, &ValidationError{Path: path, Msg: "element not declared in DTD"})
		return
	}
	// Collect element children in order.
	var kids []*dom.Node
	for _, c := range n.Children {
		if c.Type == dom.ElementNode {
			kids = append(kids, c)
		}
	}
	if err := matchSequence(decl.Children, kids); err != "" {
		*errs = append(*errs, &ValidationError{Path: path, Msg: err})
	}
	for _, k := range kids {
		d.validateNode(k, path+"/"+k.Tag, errs)
	}
}

// matchSequence checks the ordered child elements against the content model
// (a sequence of named particles with occurrence indicators). It returns a
// description of the first mismatch, or "".
func matchSequence(model []Child, kids []*dom.Node) string {
	i := 0
	for _, spec := range model {
		count := 0
		for i < len(kids) && kids[i].Tag == spec.Name {
			count++
			i++
		}
		switch spec.Repeat {
		case One:
			if count != 1 {
				return fmt.Sprintf("child %s occurs %d times, model requires exactly 1", spec.Name, count)
			}
		case Plus:
			if count < 1 {
				return fmt.Sprintf("child %s missing, model requires at least 1", spec.Name)
			}
		case Opt:
			if count > 1 {
				return fmt.Sprintf("child %s occurs %d times, model allows at most 1", spec.Name, count)
			}
		}
	}
	if i < len(kids) {
		return fmt.Sprintf("unexpected child %s at position %d", kids[i].Tag, i)
	}
	return ""
}
