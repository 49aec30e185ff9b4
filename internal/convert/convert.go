// Package convert implements the paper's document conversion process (§2.3):
// the transformation of a topic-specific HTML document into an XML document
// whose elements carry concept names and whose structure reflects the
// logical — rather than visual — layout of the original.
//
// Four restructuring rules run in order:
//
//  1. Tokenization rule (text rule): each text node is decomposed at
//     punctuation delimiters into TOKEN nodes.
//  2. Concept instance rule (text rule): each token is related to a concept
//     by synonym matching and/or a multinomial Bayes classifier; identified
//     tokens become <concept val="..."/> elements, unidentified token text
//     is passed to the parent's val attribute so no information is lost.
//  3. Grouping rule (structure rule): runs of block-level "group tags" at
//     the same level collect their following siblings into GROUP nodes that
//     sink below them, recovering logical nesting from visual sectioning.
//  4. Consolidation rule (structure rule): bottom-up elimination of all
//     remaining HTML markup — list-structured or uniform children are
//     pushed up, otherwise a node is replaced by its first concept child.
//
// The result contains only XML elements named after concepts.
package convert

import (
	"strings"
	"sync"
	"unicode/utf8"

	"webrev/internal/bayes"
	"webrev/internal/concept"
	"webrev/internal/dom"
	"webrev/internal/htmlparse"
	"webrev/internal/obs"
	"webrev/internal/tidy"
)

// GroupTag is the temporary element name produced by the grouping rule.
const GroupTag = "GROUP"

// xmlControls are the control bytes XML 1.0 cannot carry: every C0
// control but tab, newline and carriage return. The tokenization rule
// splits at them as at a delimiter, so no token carries one into a val,
// where it would make the stored XML undecodable.
const xmlControls = "\x00\x01\x02\x03\x04\x05\x06\x07\x08\x0b\x0c\x0e\x0f\x10\x11\x12\x13\x14\x15\x16\x17\x18\x19\x1a\x1b\x1c\x1d\x1e\x1f"

// Options configures a Converter. The zero value is completed by
// applyDefaults with the paper's §4 settings.
type Options struct {
	// Delimiters are the punctuation bytes used by the tokenization rule.
	// Default: ";" "," ":" "·" (the paper's set).
	Delimiters string
	// GroupTags maps HTML group tags to their grouping weight; higher
	// weights group first (the paper gives h1 priority over p). Defaults to
	// the paper's annotation: headings, div, p, tr, dt, dd, li, title, u,
	// strong, b, em, i.
	GroupTags map[string]int
	// ListTags are HTML elements "known to exhibit a list structure" whose
	// children are objects of the same abstraction level. Defaults to the
	// paper's: body, table, dl, ul, ol, dir, menu.
	ListTags map[string]bool
	// RootName is the element name of the produced XML document root, e.g.
	// "resume".
	RootName string
	// Classifier, when non-nil and trained, identifies tokens the synonym
	// matcher misses.
	Classifier *bayes.Classifier
	// Constraints, when non-nil, guide consolidation (e.g. preferring title
	// concepts as group heads). Optional, per §2.2.
	Constraints *concept.Constraints
	// SkipTidy disables the HTML cleansing pass (§2.4) before conversion.
	SkipTidy bool
	// SkipGrouping disables the grouping rule (§2.3.2), for ablation: only
	// text rules and consolidation run, so visual sectioning is never
	// recovered into nesting.
	SkipGrouping bool
	// Limits bounds the work one document may consume; over-limit input is
	// truncated rather than failed (Stats.Truncated reports it). The zero
	// value is unlimited.
	Limits Limits
	// Tracer receives sub-spans (convert.tokenize, convert.classify,
	// convert.group, convert.consolidate) and token/concept counters. Nil
	// means the no-op tracer: conversion pays nothing for instrumentation.
	Tracer obs.Tracer
}

// DefaultGroupTags returns the paper's group-tag annotation with weights:
// heading levels dominate structural blocks, which dominate inline emphasis.
func DefaultGroupTags() map[string]int {
	return map[string]int{
		"h1": 100, "h2": 95, "h3": 90, "h4": 85, "h5": 80, "h6": 75,
		"title": 70,
		"div":   60, "p": 55, "tr": 50, "dt": 45, "dd": 40, "li": 35,
		"u": 20, "strong": 18, "b": 16, "em": 14, "i": 12,
	}
}

// DefaultListTags returns the paper's list-tag annotation.
func DefaultListTags() map[string]bool {
	return map[string]bool{
		"body": true, "table": true, "dl": true, "ul": true, "ol": true,
		"dir": true, "menu": true,
	}
}

func (o Options) applyDefaults() Options {
	if o.Delimiters == "" {
		o.Delimiters = ";,:·"
	}
	if o.GroupTags == nil {
		o.GroupTags = DefaultGroupTags()
	}
	if o.ListTags == nil {
		o.ListTags = DefaultListTags()
	}
	if o.RootName == "" {
		o.RootName = "document"
	}
	o.Tracer = obs.OrNop(o.Tracer)
	return o
}

// Sub-span names of one document conversion, recorded on Options.Tracer.
const (
	SpanParse       = "convert.parse"       // HTML parsing + tidy cleansing
	SpanTokenize    = "convert.tokenize"    // tokenization + concept instance rules
	SpanClassify    = "convert.classify"    // Bayes classifier invocations
	SpanGroup       = "convert.group"       // grouping rule
	SpanConsolidate = "convert.consolidate" // consolidation rule
)

// Limits bounds what one document's conversion may consume, so a single
// pathological page (a machine-generated million-node table, a degenerate
// thousand-deep nesting, an unbounded text blob) degrades gracefully
// instead of stalling the pipeline. Zero fields are unlimited.
type Limits struct {
	// MaxDOMNodes caps the parsed DOM's node count; input past the cap is
	// dropped (htmlparse.Limits.MaxNodes).
	MaxDOMNodes int
	// MaxDepth caps the parsed DOM's element nesting depth
	// (htmlparse.Limits.MaxDepth).
	MaxDepth int
	// MaxTokens caps the tokens produced by the tokenization rule; text
	// past the cap folds into parent vals uninspected.
	MaxTokens int
}

// Stats reports conversion measurements, including the identified /
// unidentifiable token ratio the paper recommends as user feedback (§2.3.1).
type Stats struct {
	Tokens             int // tokens produced by the tokenization rule
	IdentifiedTokens   int // tokens related to at least one concept
	UnidentifiedTokens int // tokens passed to parent val
	ConceptNodes       int // concept elements in the result
	HTMLNodes          int // element nodes in the parsed input
	// Truncated reports that a configured limit (Options.Limits) cut the
	// document short: the result covers only the prefix within budget.
	Truncated bool
}

// IdentifiedRatio returns the fraction of tokens related to a concept.
func (s Stats) IdentifiedRatio() float64 {
	if s.Tokens == 0 {
		return 0
	}
	return float64(s.IdentifiedTokens) / float64(s.Tokens)
}

// Converter transforms HTML documents into concept-tagged XML documents.
// A Converter is safe for concurrent use: per-document scratch state lives
// in pools, and the classifier is consulted through its frozen snapshot,
// which all worker shards share (see bayes.Frozen).
type Converter struct {
	set  *concept.Set
	opts Options
	// delim is Options.Delimiters compiled to a byte table: the
	// tokenization rule tests every input byte against it.
	delim [256]bool
}

// New returns a Converter over the given concept set. opts zero fields are
// filled with the paper's defaults. When opts.Classifier is trained, its
// log-probability tables are frozen here, once, so the per-token
// classification in every worker shard is pure table lookups over shared
// state.
func New(set *concept.Set, opts Options) *Converter {
	c := &Converter{set: set, opts: opts.applyDefaults()}
	for _, b := range []byte(c.opts.Delimiters + xmlControls) {
		c.delim[b] = true
	}
	if c.opts.Classifier != nil {
		// Warm the frozen snapshot so the first converted document does
		// not pay the freeze; later Train calls re-freeze lazily.
		c.opts.Classifier.Freeze()
	}
	return c
}

// scratch holds the per-document reusable buffers of one conversion.
type scratch struct {
	toks  []string    // tokenization rule output
	texts []*dom.Node // collected text nodes
	kids  []*dom.Node // consolidation child snapshot
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Convert parses, cleans and restructures the HTML source into an XML
// document tree rooted at an element named opts.RootName.
func (c *Converter) Convert(htmlSrc string) (*dom.Node, Stats) {
	sp := c.opts.Tracer.StartSpan(SpanParse)
	doc, truncated := htmlparse.ParseLimited(htmlSrc, htmlparse.Limits{
		MaxNodes: c.opts.Limits.MaxDOMNodes,
		MaxDepth: c.opts.Limits.MaxDepth,
	})
	if !c.opts.SkipTidy {
		tidy.Clean(doc)
	}
	sp.End()
	body := doc.FindElement("body")
	if body == nil {
		body = doc
	}
	root, stats := c.ConvertTree(body)
	stats.Truncated = stats.Truncated || truncated
	return root, stats
}

// ConvertTree restructures an already parsed (and optionally cleaned) HTML
// subtree. The input tree is consumed: its nodes are rearranged into the
// result.
func (c *Converter) ConvertTree(body *dom.Node) (*dom.Node, Stats) {
	var stats Stats
	stats.HTMLNodes = body.CountElements()
	tr := c.opts.Tracer

	sp := tr.StartSpan(SpanTokenize)
	c.applyTextRules(body, &stats)
	sp.End()
	if !c.opts.SkipGrouping {
		sp = tr.StartSpan(SpanGroup)
		c.applyGroupingRule(body)
		sp.End()
	}
	sp = tr.StartSpan(SpanConsolidate)
	root := dom.NewElement(c.opts.RootName)
	c.consolidate(body, root)
	sp.End()
	// Whatever val accumulated on the consumed body/document belongs to the
	// root.
	root.AppendVal(body.Val())
	stats.ConceptNodes = c.seal(root)
	if tr.Enabled() {
		tr.Add(obs.CtrTokens, int64(stats.Tokens))
		tr.Add(obs.CtrTokensIdent, int64(stats.IdentifiedTokens))
		tr.Add(obs.CtrTokensUnident, int64(stats.UnidentifiedTokens))
		tr.Add(obs.CtrConceptNodes, int64(stats.ConceptNodes))
	}
	return root, stats
}

// seal makes the converted tree one the store can hold and read back, and
// counts its concept elements. Its elements carry no attribute but the
// val conversion gave them (applyTextRules drops the HTML ones). Vals and
// texts are mapped to characters XML can carry (xmlChars): the
// tokenization rule splits text at control bytes, but U+FFFE and U+FFFF
// in text get this far.
func (c *Converter) seal(n *dom.Node) int {
	count := 0
	if n.Type == dom.ElementNode {
		if c.set.Has(n.Tag) {
			count++
		}
		for i := range n.Attrs {
			n.Attrs[i].Value = xmlChars(n.Attrs[i].Value)
		}
	} else {
		n.Text = xmlChars(n.Text)
	}
	for _, ch := range n.Children {
		count += c.seal(ch)
	}
	return count
}

// xmlChars returns s with every character XML 1.0 cannot carry — a C0
// control other than tab, newline and carriage return, U+FFFE or U+FFFF —
// replaced by U+FFFD, the character Marshal already writes for malformed
// UTF-8. The scan stops at the first byte that can start such a character
// (any C0 byte, or 0xEF); a string without one comes back as is.
func xmlChars(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] < 0x20 || s[i] == 0xEF {
			return strings.Map(xmlRune, s)
		}
	}
	return s
}

func xmlRune(r rune) rune {
	if r < 0x20 && r != '\t' && r != '\n' && r != '\r' || r == 0xFFFE || r == 0xFFFF {
		return utf8.RuneError
	}
	return r
}

// ---------------------------------------------------------------------------
// Text rules (§2.3.1)
// ---------------------------------------------------------------------------

// Tokenize splits a topic sentence at the configured delimiters and at
// xmlControls, trimming whitespace and dropping empty tokens. Exposed for
// tests and the paper's TOKEN-node semantics.
func (c *Converter) Tokenize(text string) []string {
	return c.appendTokens(nil, text)
}

// appendTokens is Tokenize into a caller-owned buffer: the tokens (always
// sub-slices of text) are appended to dst, so a recycled dst makes the
// tokenization rule allocation-free.
func (c *Converter) appendTokens(dst []string, text string) []string {
	start := 0
	for i := 0; i < len(text); i++ {
		if c.delim[text[i]] {
			if tok := strings.TrimSpace(text[start:i]); tok != "" {
				dst = append(dst, tok)
			}
			start = i + 1
		}
	}
	if tok := strings.TrimSpace(text[start:]); tok != "" {
		dst = append(dst, tok)
	}
	return dst
}

// applyTextRules runs the tokenization and concept instance rules top-down,
// replacing every text node with concept elements and folding unidentified
// text into parent val attributes. Both the collected-text-node slice and
// the per-node token slice come from a pooled scratch, so the rule
// allocates only for the concept elements it creates.
func (c *Converter) applyTextRules(root *dom.Node, stats *Stats) {
	sc := scratchPool.Get().(*scratch)
	// The walk that collects the text nodes also drops every HTML
	// attribute. The converter reads none, and an HTML val attribute must
	// not seed the val a converted element accumulates from text.
	texts := root.FindAllAppend(sc.texts[:0], func(n *dom.Node) bool {
		n.Attrs = nil
		return n.Type == dom.TextNode
	})
	toks := sc.toks
	for _, tn := range texts {
		parent := tn.Parent
		if parent == nil {
			continue
		}
		at := parent.ChildIndex(tn)
		tn.Detach()
		toks = c.appendTokens(toks[:0], tn.Text)
		for _, tok := range toks {
			if max := c.opts.Limits.MaxTokens; max > 0 && stats.Tokens >= max {
				// Token budget exhausted: the rest of the document's text
				// folds into parent vals uninspected, preserving the
				// information without paying for concept matching.
				stats.Truncated = true
				parent.AppendVal(tok)
				continue
			}
			stats.Tokens++
			nodes := c.applyInstanceRule(tok, parent, stats)
			for _, nd := range nodes {
				parent.InsertChildAt(at, nd)
				at++
			}
		}
	}
	// Drop references into the converted document before pooling the
	// scratch, so a recycled buffer does not pin the previous tree.
	clear(texts)
	clear(toks)
	sc.texts, sc.toks = texts[:0], toks[:0]
	scratchPool.Put(sc)
}

// applyInstanceRule implements the concept instance rule for one token:
// it returns the replacement elements (possibly none) and folds unmatched
// text into parent's val.
func (c *Converter) applyInstanceRule(tok string, parent *dom.Node, stats *Stats) []*dom.Node {
	matches := c.set.FindAll(tok)
	if len(matches) == 0 && c.opts.Classifier != nil {
		// Freeze is an atomic load after the first call; every worker
		// shard shares the same compiled tables and token memo.
		if f := c.opts.Classifier.Freeze(); f.Trained() {
			sp := c.opts.Tracer.StartSpan(SpanClassify)
			class, _ := f.Classify(tok)
			sp.End()
			if class != bayes.Unknown && c.set.Has(class) {
				stats.IdentifiedTokens++
				c.opts.Tracer.Add(obs.CtrClassifierHits, 1)
				el := dom.NewElement(class)
				el.SetVal(tok)
				return []*dom.Node{el}
			}
		}
	}
	switch len(matches) {
	case 0:
		// Case 2: no concept instance — token node deleted, text passed to
		// the parent as val.
		stats.UnidentifiedTokens++
		parent.AppendVal(tok)
		return nil
	case 1:
		// Case 1: the whole token becomes <C val="token"/>.
		stats.IdentifiedTokens++
		el := dom.NewElement(matches[0].Concept)
		el.SetVal(tok)
		return []*dom.Node{el}
	default:
		// More than one instance: decompose. Text before the first instance
		// goes to the parent val; each instance claims text up to the next
		// instance (the last claims the remainder).
		stats.IdentifiedTokens++
		if pre := strings.TrimSpace(tok[:matches[0].Start]); pre != "" {
			parent.AppendVal(pre)
		}
		out := make([]*dom.Node, 0, len(matches))
		for i, m := range matches {
			end := len(tok)
			if i+1 < len(matches) {
				end = matches[i+1].Start
			}
			el := dom.NewElement(m.Concept)
			el.SetVal(strings.TrimSpace(tok[m.Start:end]))
			out = append(out, el)
		}
		return out
	}
}

// ---------------------------------------------------------------------------
// Grouping rule (§2.3.2)
// ---------------------------------------------------------------------------

// applyGroupingRule operates top-down: at every level, the highest-weight
// group tag present among the children partitions its following siblings
// into GROUP nodes that become children of the marker nodes.
func (c *Converter) applyGroupingRule(n *dom.Node) {
	c.groupLevel(n)
	// groupLevel has already rewritten n.Children; the recursion below
	// only restructures each child's own subtree, so n.Children is stable
	// and needs no defensive copy.
	for _, k := range n.Children {
		if k.Type == dom.ElementNode {
			c.applyGroupingRule(k)
		}
	}
}

// emphasisTags are text-level elements whose presence as the sole content
// of a block signals a heading-like marker (visual clue: authors who avoid
// heading elements bold their section titles instead).
var emphasisTags = map[string]bool{
	"b": true, "strong": true, "u": true, "em": true, "i": true,
	"big": true, "font": true,
}

// groupLevel applies one grouping pass to the children of n. Grouping by
// the dominant effective tag sinks the intervening siblings; lower-weight
// tags are handled when recursion reaches the new GROUP nodes.
func (c *Converter) groupLevel(n *dom.Node) {
	mark := c.dominantGroupTag(n)
	if mark == "" {
		return
	}
	// Partition: children before the first marker stay; for each marker, the
	// siblings up to the next marker form its GROUP.
	var result []*dom.Node
	i := 0
	for i < len(n.Children) && c.effectiveTag(n.Children[i]) != mark {
		result = append(result, n.Children[i])
		i++
	}
	for i < len(n.Children) {
		marker := n.Children[i]
		i++
		var between []*dom.Node
		for i < len(n.Children) && c.effectiveTag(n.Children[i]) != mark {
			between = append(between, n.Children[i])
			i++
		}
		result = append(result, marker)
		if len(between) > 0 {
			g := dom.NewElement(GroupTag)
			for _, b := range between {
				b.Parent = g
				g.Children = append(g.Children, b)
			}
			g.Parent = marker
			marker.Children = append(marker.Children, g)
		}
	}
	n.Children = result
}

// effectiveTag returns the grouping identity of a child: its own tag, or
// "tag:emphasis" when the block's only element child is an emphasis element
// (e.g. <p><b>Education</b></p> acts as a bold-heading marker distinct from
// plain <p> siblings). Concept elements have no grouping identity: they are
// data, not markup — even when a concept name collides with an HTML tag
// name (the job-title concept vs <title>).
func (c *Converter) effectiveTag(ch *dom.Node) string {
	if ch.Type != dom.ElementNode || c.set.Has(ch.Tag) {
		return ""
	}
	if len(ch.Children) == 1 {
		only := ch.Children[0]
		if only.Type == dom.ElementNode && emphasisTags[only.Tag] && !c.set.Has(only.Tag) {
			return ch.Tag + ":emphasis"
		}
	}
	return ch.Tag
}

// tagWeight returns the grouping weight of an effective tag; promoted
// emphasis markers outrank their plain block siblings.
func (c *Converter) tagWeight(eff string) (int, bool) {
	if base, found := strings.CutSuffix(eff, ":emphasis"); found {
		w, ok := c.opts.GroupTags[base]
		if !ok {
			return 0, false
		}
		return w + 10, true
	}
	w, ok := c.opts.GroupTags[eff]
	return w, ok
}

// dominantGroupTag returns the highest-weight effective group tag that
// occurs among the element children of n and has something to group, or "".
func (c *Converter) dominantGroupTag(n *dom.Node) string {
	best, bestW := "", -1
	for _, ch := range n.Children {
		eff := c.effectiveTag(ch)
		if eff == "" {
			continue
		}
		if w, ok := c.tagWeight(eff); ok && w > bestW {
			best, bestW = eff, w
		}
	}
	if best == "" {
		return ""
	}
	// Grouping is useful only if at least one non-marker sibling follows the
	// first marker.
	seen := false
	for _, ch := range n.Children {
		if c.effectiveTag(ch) == best {
			seen = true
			continue
		}
		if seen {
			return best
		}
	}
	return ""
}

// ---------------------------------------------------------------------------
// Consolidation rule (§2.3.2)
// ---------------------------------------------------------------------------

// consolidate eliminates all non-concept markup bottom-up. body's surviving
// children are moved under root.
func (c *Converter) consolidate(body, root *dom.Node) {
	c.consolidateNode(body)
	// body is itself a list tag ("body" is in the paper's list-tag set): its
	// children are objects of the same level and become the root's children.
	root.AdoptChildren(body)
}

// isConceptNode reports whether n is an XML element carrying a concept name.
func (c *Converter) isConceptNode(n *dom.Node) bool {
	return n.Type == dom.ElementNode && c.set.Has(n.Tag)
}

// consolidateNode processes n's children recursively, then removes
// non-concept children of n according to the consolidation rule.
func (c *Converter) consolidateNode(n *dom.Node) {
	// The recursion mutates only each child's own subtree, never
	// n.Children, so it iterates in place.
	for _, k := range n.Children {
		c.consolidateNode(k)
	}
	// Now every grandchild level below n is consolidated; fold each
	// non-concept child of n. Folding rewrites n.Children (detach, splice,
	// replace), so this loop runs over a snapshot — stack-buffered, which
	// makes it allocation-free for the typical fan-out.
	var stackBuf [16]*dom.Node
	kids := append(stackBuf[:0], n.Children...)
	for _, k := range kids {
		if k.Parent != n || k.Type != dom.ElementNode || c.isConceptNode(k) {
			continue
		}
		c.foldMarkupNode(k)
	}
}

// foldMarkupNode eliminates one non-concept element whose descendants are
// already consolidated (children are concept elements only).
func (c *Converter) foldMarkupNode(k *dom.Node) {
	parent := k.Parent
	if len(k.Children) == 0 {
		// Childless markup: delete, passing its val (unidentified text) up.
		parent.AppendVal(k.Val())
		k.Detach()
		return
	}
	if c.opts.ListTags[k.Tag] || uniformConceptChildren(k) || c.titleSiblings(k) {
		// List structure or uniform children: maintain the sibling
		// relationship by pushing the children up in k's place.
		parent.AppendVal(k.Val())
		k.SpliceUp()
		return
	}
	// Replace k by its first child related to a concept; the remaining
	// children become that child's children (Figure 1). Constraints, when
	// available, prefer a title-role concept as the head.
	head := c.pickHead(k)
	if head == nil {
		// No concept child (pure markup subtree): push everything up.
		parent.AppendVal(k.Val())
		k.SpliceUp()
		return
	}
	// Unidentified text that accumulated on the markup node belongs to the
	// surrounding context, not to the head concept's own value.
	parent.AppendVal(k.Val())
	rest := make([]*dom.Node, 0, len(k.Children)-1)
	for _, ch := range k.Children {
		if ch != head {
			rest = append(rest, ch)
		}
	}
	for _, ch := range rest {
		head.AppendChild(ch)
	}
	k.ReplaceWith(head)
}

// pickHead selects the child that replaces a folded markup node: the first
// concept child, except that when role constraints are active a title-role
// concept is preferred over content-role ones (§2.2: constraints can be
// utilized to determine whether a node can become a parent of another).
func (c *Converter) pickHead(k *dom.Node) *dom.Node {
	var first *dom.Node
	for _, ch := range k.Children {
		if !c.isConceptNode(ch) {
			continue
		}
		if first == nil {
			first = ch
		}
		if c.opts.Constraints != nil && c.opts.Constraints.RoleDepth {
			if cc := c.set.Get(ch.Tag); cc != nil && cc.Role == concept.RoleTitle {
				return ch
			}
		}
	}
	return first
}

// titleSiblings reports whether k's concept children include two or more
// title-role concepts. Sections are sibling objects at the same level of
// abstraction, so nesting one under another would violate the sibling
// constraints; the consolidation rule "can also utilize existing concept
// constraints in order to determine whether a node can become a parent or
// sibling of another" (§2.3.2). Content-role orphans between sections ride
// along as siblings rather than swallowing the sections that follow them.
func (c *Converter) titleSiblings(k *dom.Node) bool {
	if c.opts.Constraints == nil || !c.opts.Constraints.RoleDepth {
		return false
	}
	titles := 0
	for _, ch := range k.Children {
		if !c.isConceptNode(ch) {
			return false
		}
		if cc := c.set.Get(ch.Tag); cc != nil && cc.Role == concept.RoleTitle {
			titles++
		}
	}
	return titles >= 2
}

// uniformConceptChildren reports whether k has at least two element children
// and they all carry the same element name ("a more trivial case is when the
// children already carry the same XML element name").
func uniformConceptChildren(k *dom.Node) bool {
	var tag string
	n := 0
	for _, ch := range k.Children {
		if ch.Type != dom.ElementNode {
			return false
		}
		if n == 0 {
			tag = ch.Tag
		} else if ch.Tag != tag {
			return false
		}
		n++
	}
	return n >= 2
}
