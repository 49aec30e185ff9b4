// Package tidy cleanses parsed HTML trees before document conversion.
//
// The paper (§2.4) observes that "applying HTML cleansing tools (such as
// HTML Tidy) can improve the accuracy of resulting XML documents". This
// package implements the cleansing passes that matter for the restructuring
// rules: dropping non-content nodes, whitespace normalization, merging text
// runs, repairing heading nesting, and unwrapping purely presentational
// containers.
package tidy

import (
	"strings"

	"webrev/internal/dom"
)

// Options configures the cleansing passes. The zero value applies every
// pass; use a field to switch one off.
type Options struct {
	KeepComments  bool // retain comment nodes
	KeepScripts   bool // retain script/style/head content
	KeepEmptyText bool // retain whitespace-only text nodes
}

// nonContentTags are elements whose entire subtree carries no document
// information for conversion purposes.
var nonContentTags = map[string]bool{
	"script": true, "style": true, "head": true, "meta": true,
	"link": true, "base": true, "noscript": true, "object": true,
	"applet": true, "iframe": true, "map": true, "area": true,
}

// headingTags in rank order.
var headingTags = map[string]bool{
	"h1": true, "h2": true, "h3": true, "h4": true, "h5": true, "h6": true,
}

// Clean applies the default cleansing passes in place and returns n for
// chaining.
func Clean(n *dom.Node) *dom.Node { return CleanWith(n, Options{}) }

// CleanWith applies the cleansing passes selected by opts in place.
func CleanWith(n *dom.Node, opts Options) *dom.Node {
	if !opts.KeepScripts {
		removeNonContent(n)
	}
	if !opts.KeepComments {
		removeComments(n)
	}
	normalizeWhitespace(n, opts.KeepEmptyText)
	mergeTextRuns(n)
	repairHeadings(n)
	return n
}

func removeNonContent(root *dom.Node) {
	for {
		victim := root.Find(func(m *dom.Node) bool {
			return m.Type == dom.ElementNode && nonContentTags[m.Tag] && m.Parent != nil
		})
		if victim == nil {
			return
		}
		victim.Detach()
	}
}

func removeComments(root *dom.Node) {
	for {
		victim := root.Find(func(m *dom.Node) bool {
			return (m.Type == dom.CommentNode || m.Type == dom.DoctypeNode) && m.Parent != nil
		})
		if victim == nil {
			return
		}
		victim.Detach()
	}
}

// normalizeWhitespace collapses runs of whitespace inside text nodes to
// single spaces and removes whitespace-only text nodes (unless kept).
// Text inside <pre> keeps its authored whitespace.
func normalizeWhitespace(root *dom.Node, keepEmpty bool) {
	var empties []*dom.Node
	root.Walk(func(m *dom.Node) bool {
		if m.Type == dom.ElementNode && m.Tag == "pre" {
			return false // preformatted: leave the subtree untouched
		}
		if m.Type != dom.TextNode {
			return true
		}
		m.Text = collapseSpace(m.Text)
		if !keepEmpty && strings.TrimSpace(m.Text) == "" && m.Parent != nil {
			empties = append(empties, m)
		}
		return true
	})
	for _, e := range empties {
		e.Detach()
	}
}

// collapseSpace reduces all whitespace runs to a single space, preserving a
// single leading/trailing space where the original had whitespace there so
// word boundaries across inline elements survive.
func collapseSpace(s string) string {
	if s == "" {
		return s
	}
	fields := strings.Fields(s)
	out := strings.Join(fields, " ")
	if out == "" {
		return " "
	}
	if isSpace(s[0]) {
		out = " " + out
	}
	if isSpace(s[len(s)-1]) {
		out = out + " "
	}
	return out
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f'
}

// mergeTextRuns joins adjacent sibling text nodes into one node.
func mergeTextRuns(root *dom.Node) {
	root.Walk(func(m *dom.Node) bool {
		if len(m.Children) < 2 {
			return true
		}
		out := m.Children[:0]
		for _, c := range m.Children {
			if c.Type == dom.TextNode && len(out) > 0 && out[len(out)-1].Type == dom.TextNode {
				prev := out[len(out)-1]
				prev.Text = joinText(prev.Text, c.Text)
				c.Parent = nil
				continue
			}
			out = append(out, c)
		}
		m.Children = out
		return true
	})
}

func joinText(a, b string) string {
	if strings.HasSuffix(a, " ") || strings.HasPrefix(b, " ") {
		return strings.TrimRight(a, " ") + " " + strings.TrimLeft(b, " ")
	}
	return a + b
}

// repairHeadings fixes the common authoring error where block content is
// nested inside a heading because the end tag was omitted: everything after
// the heading's first block-level child is moved out to become the heading's
// following siblings.
func repairHeadings(root *dom.Node) {
	blockTags := map[string]bool{
		"p": true, "div": true, "ul": true, "ol": true, "dl": true,
		"table": true, "pre": true, "blockquote": true, "hr": true,
		"form": true, "h1": true, "h2": true, "h3": true, "h4": true,
		"h5": true, "h6": true, "center": true, "address": true,
	}
	for {
		changed := false
		root.Walk(func(m *dom.Node) bool {
			if m.Type != dom.ElementNode || !headingTags[m.Tag] || m.Parent == nil {
				return true
			}
			cut := -1
			for i, c := range m.Children {
				if c.Type == dom.ElementNode && blockTags[c.Tag] {
					cut = i
					break
				}
			}
			if cut < 0 {
				return true
			}
			parent := m.Parent
			at := parent.ChildIndex(m) + 1
			moved := make([]*dom.Node, len(m.Children)-cut)
			copy(moved, m.Children[cut:])
			for _, mv := range moved {
				mv.Detach()
				parent.InsertChildAt(at, mv)
				at++
			}
			changed = true
			return false
		})
		if !changed {
			return
		}
	}
}
