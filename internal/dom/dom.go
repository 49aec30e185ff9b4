// Package dom implements the ordered-tree document model shared by the HTML
// and XML sides of the webrev pipeline.
//
// The paper (§2.3) treats an input HTML document as an XML document: an
// ordered tree in which every element carries an attribute named "val" of
// type CDATA. This package provides that tree: typed nodes, attribute
// handling, traversal, and the mutation primitives (append, insert, replace,
// splice, detach) that the restructuring rules in internal/convert are built
// from.
package dom

import (
	"fmt"
	"sort"
	"strings"
)

// NodeType discriminates the kinds of tree nodes.
type NodeType int

// Node types. DocumentNode is the synthetic root produced by parsers;
// ElementNode covers both HTML elements and XML concept elements.
const (
	DocumentNode NodeType = iota
	ElementNode
	TextNode
	CommentNode
	DoctypeNode
)

// String returns a short human-readable name for the node type.
func (t NodeType) String() string {
	switch t {
	case DocumentNode:
		return "document"
	case ElementNode:
		return "element"
	case TextNode:
		return "text"
	case CommentNode:
		return "comment"
	case DoctypeNode:
		return "doctype"
	default:
		return fmt.Sprintf("NodeType(%d)", int(t))
	}
}

// Attr is a single name/value attribute pair. Order of attributes on a node
// is preserved as authored.
type Attr struct {
	Name  string
	Value string
}

// Node is one node of an ordered document tree. The zero value is not
// directly useful; construct nodes with NewElement, NewText, NewDocument or
// the parsers.
type Node struct {
	Type     NodeType
	Tag      string // element name; lowercase for HTML elements
	Text     string // content for TextNode, CommentNode, DoctypeNode
	Attrs    []Attr
	Parent   *Node
	Children []*Node
}

// NewDocument returns an empty document root.
func NewDocument() *Node { return &Node{Type: DocumentNode} }

// NewElement returns a parentless element node with the given tag.
func NewElement(tag string) *Node { return &Node{Type: ElementNode, Tag: tag} }

// NewText returns a parentless text node.
func NewText(text string) *Node { return &Node{Type: TextNode, Text: text} }

// NewComment returns a parentless comment node.
func NewComment(text string) *Node { return &Node{Type: CommentNode, Text: text} }

// Elem builds an element with attributes given as alternating name, value
// strings, followed by children. It is a convenience for tests and
// generators; it panics if attrs has odd length.
func Elem(tag string, attrs []string, children ...*Node) *Node {
	if len(attrs)%2 != 0 {
		panic("dom.Elem: attrs must be name/value pairs")
	}
	n := NewElement(tag)
	for i := 0; i < len(attrs); i += 2 {
		n.SetAttr(attrs[i], attrs[i+1])
	}
	for _, c := range children {
		n.AppendChild(c)
	}
	return n
}

// Attr returns the value of the named attribute and whether it is present.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// AttrOr returns the named attribute's value, or def when absent.
func (n *Node) AttrOr(name, def string) string {
	if v, ok := n.Attr(name); ok {
		return v
	}
	return def
}

// SetAttr sets the named attribute, replacing an existing value.
func (n *Node) SetAttr(name, value string) {
	for i := range n.Attrs {
		if n.Attrs[i].Name == name {
			n.Attrs[i].Value = value
			return
		}
	}
	n.Attrs = append(n.Attrs, Attr{Name: name, Value: value})
}

// ValAttr is the attribute every converted XML element carries (paper §2.3).
const ValAttr = "val"

// Val returns the node's val attribute (empty when absent).
func (n *Node) Val() string { return n.AttrOr(ValAttr, "") }

// SetVal sets the node's val attribute.
func (n *Node) SetVal(v string) { n.SetAttr(ValAttr, v) }

// AppendVal appends text to the node's val attribute, separating existing
// content with a single space. Empty text is a no-op. This implements the
// paper's "pass the text value to the parent node" behaviour without losing
// information.
func (n *Node) AppendVal(text string) {
	text = strings.TrimSpace(text)
	if text == "" {
		return
	}
	cur := n.Val()
	if cur == "" {
		n.SetVal(text)
		return
	}
	n.SetVal(cur + " " + text)
}

// AppendChild adds c as the last child of n, detaching it from any previous
// parent first.
func (n *Node) AppendChild(c *Node) {
	if c == nil {
		panic("dom: AppendChild(nil)")
	}
	c.Detach()
	c.Parent = n
	n.Children = append(n.Children, c)
}

// InsertChildAt inserts c at index i among n's children (0 ≤ i ≤ len).
func (n *Node) InsertChildAt(i int, c *Node) {
	if i < 0 || i > len(n.Children) {
		panic(fmt.Sprintf("dom: InsertChildAt index %d out of range [0,%d]", i, len(n.Children)))
	}
	c.Detach()
	c.Parent = n
	n.Children = append(n.Children, nil)
	copy(n.Children[i+1:], n.Children[i:])
	n.Children[i] = c
}

// ChildIndex returns the index of c among n's children, or -1.
func (n *Node) ChildIndex(c *Node) int {
	for i, ch := range n.Children {
		if ch == c {
			return i
		}
	}
	return -1
}

// RemoveChild removes c from n's children. It panics if c is not a child.
func (n *Node) RemoveChild(c *Node) {
	i := n.ChildIndex(c)
	if i < 0 {
		panic("dom: RemoveChild of non-child")
	}
	n.Children = append(n.Children[:i], n.Children[i+1:]...)
	c.Parent = nil
}

// Detach removes n from its parent, if any.
func (n *Node) Detach() {
	if n.Parent != nil {
		n.Parent.RemoveChild(n)
	}
}

// ReplaceWith substitutes repl for n in n's parent's child list. n must have
// a parent. n keeps its children.
func (n *Node) ReplaceWith(repl *Node) {
	p := n.Parent
	if p == nil {
		panic("dom: ReplaceWith on parentless node")
	}
	i := p.ChildIndex(n)
	repl.Detach()
	repl.Parent = p
	p.Children[i] = repl
	n.Parent = nil
}

// SpliceUp replaces n (which must have a parent) with n's own children,
// preserving order. This is the "push up" operation of the consolidation
// rule: the children take n's position among its siblings.
func (n *Node) SpliceUp() {
	p := n.Parent
	if p == nil {
		panic("dom: SpliceUp on parentless node")
	}
	i := p.ChildIndex(n)
	kids := n.Children
	n.Children = nil
	n.Parent = nil
	repl := make([]*Node, 0, len(p.Children)-1+len(kids))
	repl = append(repl, p.Children[:i]...)
	for _, k := range kids {
		k.Parent = p
		repl = append(repl, k)
	}
	repl = append(repl, p.Children[i+1:]...)
	p.Children = repl
}

// AdoptChildren moves all of src's children to the end of n's child list.
func (n *Node) AdoptChildren(src *Node) {
	kids := src.Children
	src.Children = nil
	for _, k := range kids {
		k.Parent = n
		n.Children = append(n.Children, k)
	}
}

// Depth returns the number of ancestors of n (root has depth 0).
func (n *Node) Depth() int {
	d := 0
	for p := n.Parent; p != nil; p = p.Parent {
		d++
	}
	return d
}

// Root returns the topmost ancestor of n (n itself when parentless).
func (n *Node) Root() *Node {
	r := n
	for r.Parent != nil {
		r = r.Parent
	}
	return r
}

// Clone returns a deep copy of the subtree rooted at n. The copy is
// parentless.
func (n *Node) Clone() *Node {
	c := &Node{Type: n.Type, Tag: n.Tag, Text: n.Text}
	if len(n.Attrs) > 0 {
		c.Attrs = make([]Attr, len(n.Attrs))
		copy(c.Attrs, n.Attrs)
	}
	for _, ch := range n.Children {
		c.AppendChild(ch.Clone())
	}
	return c
}

// Walk visits n and every descendant in document (pre-) order. Returning
// false from fn prunes the subtree below the current node.
func (n *Node) Walk(fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	// Children may be mutated by fn on a *different* subtree; iterate a copy.
	kids := make([]*Node, len(n.Children))
	copy(kids, n.Children)
	for _, c := range kids {
		if c.Parent == n { // skip nodes detached by earlier visits
			c.Walk(fn)
		}
	}
}

// walkRO is the read-only fast path of Walk: it iterates children in place
// instead of copying them, so it allocates nothing. The visitor must not
// mutate the tree. Every pure query helper (Find, FindAll, CountNodes,
// CountElements, InnerText, AllText) runs on it; Walk keeps the
// copy-per-level semantics for visitors that restructure while walking.
func (n *Node) walkRO(fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.walkRO(fn)
	}
}

// WalkPost visits every descendant of n and then n itself (post-order).
func (n *Node) WalkPost(fn func(*Node)) {
	kids := make([]*Node, len(n.Children))
	copy(kids, n.Children)
	for _, c := range kids {
		if c.Parent == n {
			c.WalkPost(fn)
		}
	}
	fn(n)
}

// Find returns the first node in document order (including n) satisfying
// pred, or nil. pred must not mutate the tree.
func (n *Node) Find(pred func(*Node) bool) *Node {
	var found *Node
	n.walkRO(func(m *Node) bool {
		if found != nil {
			return false
		}
		if pred(m) {
			found = m
			return false
		}
		return true
	})
	return found
}

// FindAll returns every node in document order satisfying pred. pred must
// not mutate the tree.
func (n *Node) FindAll(pred func(*Node) bool) []*Node {
	return n.FindAllAppend(nil, pred)
}

// FindAllAppend appends every node in document order satisfying pred to
// dst and returns the extended slice — the allocation-free variant of
// FindAll for callers that recycle a scratch buffer. pred must not mutate
// the tree.
func (n *Node) FindAllAppend(dst []*Node, pred func(*Node) bool) []*Node {
	n.walkRO(func(m *Node) bool {
		if pred(m) {
			dst = append(dst, m)
		}
		return true
	})
	return dst
}

// FindElement returns the first element with the given tag, or nil.
func (n *Node) FindElement(tag string) *Node {
	return n.Find(func(m *Node) bool { return m.Type == ElementNode && m.Tag == tag })
}

// FindElements returns all elements with the given tag, in document order.
func (n *Node) FindElements(tag string) []*Node {
	return n.FindAll(func(m *Node) bool { return m.Type == ElementNode && m.Tag == tag })
}

// CountNodes returns the number of nodes in the subtree rooted at n.
func (n *Node) CountNodes() int {
	count := 0
	n.walkRO(func(*Node) bool { count++; return true })
	return count
}

// CountElements returns the number of element nodes in the subtree.
func (n *Node) CountElements() int {
	count := 0
	n.walkRO(func(m *Node) bool {
		if m.Type == ElementNode {
			count++
		}
		return true
	})
	return count
}

// InnerText concatenates all descendant text nodes in document order,
// inserting a single space between adjacent pieces, and returns the result
// trimmed.
func (n *Node) InnerText() string {
	var parts []string
	n.walkRO(func(m *Node) bool {
		if m.Type == TextNode {
			t := strings.TrimSpace(m.Text)
			if t != "" {
				parts = append(parts, t)
			}
		}
		return true
	})
	return strings.Join(parts, " ")
}

// AllText gathers the text content of the subtree including val attributes,
// used by the no-information-loss invariant tests.
func (n *Node) AllText() []string {
	var parts []string
	n.walkRO(func(m *Node) bool {
		if m.Type == TextNode {
			if t := strings.TrimSpace(m.Text); t != "" {
				parts = append(parts, t)
			}
		}
		if m.Type == ElementNode {
			if v := strings.TrimSpace(m.Val()); v != "" {
				parts = append(parts, v)
			}
		}
		return true
	})
	return parts
}

// Equal reports deep structural equality of the subtrees rooted at n and m:
// same types, tags, text, attributes (order-insensitive) and children.
func (n *Node) Equal(m *Node) bool {
	if n == nil || m == nil {
		return n == m
	}
	if n.Type != m.Type || n.Tag != m.Tag || n.Text != m.Text {
		return false
	}
	if !attrsEqual(n.Attrs, m.Attrs) {
		return false
	}
	if len(n.Children) != len(m.Children) {
		return false
	}
	for i := range n.Children {
		if !n.Children[i].Equal(m.Children[i]) {
			return false
		}
	}
	return true
}

func attrsEqual(a, b []Attr) bool {
	if len(a) != len(b) {
		return false
	}
	as := make([]Attr, len(a))
	bs := make([]Attr, len(b))
	copy(as, a)
	copy(bs, b)
	sort.Slice(as, func(i, j int) bool { return as[i].Name < as[j].Name })
	sort.Slice(bs, func(i, j int) bool { return bs[i].Name < bs[j].Name })
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// Validate checks structural integrity of the subtree: every child's Parent
// pointer refers back to its actual parent and no node appears twice. It
// returns a descriptive error for the first violation found.
func (n *Node) Validate() error {
	seen := make(map[*Node]bool)
	var check func(*Node) error
	check = func(m *Node) error {
		if seen[m] {
			return fmt.Errorf("dom: node %s appears twice in tree", m.Label())
		}
		seen[m] = true
		for _, c := range m.Children {
			if c.Parent != m {
				return fmt.Errorf("dom: child %s of %s has wrong parent pointer", c.Label(), m.Label())
			}
			if err := check(c); err != nil {
				return err
			}
		}
		return nil
	}
	return check(n)
}

// Label returns a short identifying string for diagnostics: the tag for
// elements, a truncated quoted text for text nodes.
func (n *Node) Label() string {
	switch n.Type {
	case ElementNode:
		return "<" + n.Tag + ">"
	case TextNode:
		t := n.Text
		if len(t) > 20 {
			t = t[:20] + "..."
		}
		return fmt.Sprintf("%q", t)
	case DocumentNode:
		return "#document"
	case CommentNode:
		return "#comment"
	case DoctypeNode:
		return "#doctype"
	}
	return "#unknown"
}

// String renders a compact single-line s-expression of the subtree, mainly
// for tests and debugging.
func (n *Node) String() string {
	var b strings.Builder
	n.writeSexpr(&b)
	return b.String()
}

func (n *Node) writeSexpr(b *strings.Builder) {
	switch n.Type {
	case TextNode:
		fmt.Fprintf(b, "%q", n.Text)
		return
	case CommentNode:
		fmt.Fprintf(b, "<!--%s-->", n.Text)
		return
	case DoctypeNode:
		fmt.Fprintf(b, "<!DOCTYPE %s>", n.Text)
		return
	}
	b.WriteByte('(')
	if n.Type == DocumentNode {
		b.WriteString("#doc")
	} else {
		b.WriteString(n.Tag)
	}
	for _, a := range n.Attrs {
		fmt.Fprintf(b, " %s=%q", a.Name, a.Value)
	}
	for _, c := range n.Children {
		b.WriteByte(' ')
		c.writeSexpr(b)
	}
	b.WriteByte(')')
}
