// Package xmlout serializes dom trees as XML documents and decodes that
// serialization back into dom trees, giving the pipeline a durable on-disk
// representation for the XML repository the paper's system feeds (§1, §5).
package xmlout

import (
	"bytes"
	"strings"
	"sync"

	"webrev/internal/dom"
	"webrev/internal/entity"
)

// bufPool recycles the serialization buffers behind Marshal. The buffer is
// returned to the pool before the call returns; callers only ever see the
// copied-out string, so no pooled memory escapes. See ARCHITECTURE.md,
// "Performance model".
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const xmlHeader = `<?xml version="1.0" encoding="UTF-8"?>` + "\n"

// Marshal renders the subtree rooted at n as indented XML, with a standard
// declaration header when n is an element or document.
func Marshal(n *dom.Node) string {
	b := bufPool.Get().(*bytes.Buffer)
	b.Reset()
	b.WriteString(xmlHeader)
	writeNode(b, n, 0)
	s := b.String()
	bufPool.Put(b)
	return s
}

// indentPad holds two-space indentation for the first maxPad depths; deeper
// nodes fall back to writing it out level by level.
const maxPad = 64

var indentPad = strings.Repeat("  ", maxPad)

func writePad(b *bytes.Buffer, depth int) {
	for depth > maxPad {
		b.WriteString(indentPad)
		depth -= maxPad
	}
	b.WriteString(indentPad[:2*depth])
}

// writeNode writes n and its subtree, one node per line indented by depth.
// It writes XML that UnmarshalElement reads back (DESIGN.md §8): an
// element with nothing to write inside is self-closed, a comment never
// holds "--" or ends in '-', and a doctype is written only at the top
// level, outside any element.
func writeNode(b *bytes.Buffer, n *dom.Node, depth int) {
	switch n.Type {
	case dom.DocumentNode:
		for _, c := range n.Children {
			writeNode(b, c, depth)
		}
		return
	case dom.TextNode:
		if t := strings.TrimSpace(n.Text); t != "" {
			writePad(b, depth)
			entity.WriteText(b, t)
			b.WriteByte('\n')
		}
		return
	case dom.CommentNode:
		writePad(b, depth)
		b.WriteString("<!--")
		b.WriteString(commentText(n.Text))
		b.WriteString("-->\n")
		return
	case dom.DoctypeNode:
		if depth > 0 {
			return
		}
		writePad(b, depth)
		b.WriteString("<!DOCTYPE ")
		b.WriteString(n.Text)
		b.WriteString(">\n")
		return
	}
	writePad(b, depth)
	b.WriteByte('<')
	b.WriteString(n.Tag)
	for _, a := range n.Attrs {
		b.WriteByte(' ')
		b.WriteString(a.Name)
		b.WriteString(`="`)
		entity.WriteAttr(b, a.Value)
		b.WriteByte('"')
	}
	if !writesAny(n.Children) {
		b.WriteString("/>\n")
		return
	}
	b.WriteString(">\n")
	for _, c := range n.Children {
		writeNode(b, c, depth+1)
	}
	writePad(b, depth)
	b.WriteString("</")
	b.WriteString(n.Tag)
	b.WriteString(">\n")
}

// writesAny reports whether writeNode writes a line for any of an
// element's children.
func writesAny(children []*dom.Node) bool {
	for _, c := range children {
		switch c.Type {
		case dom.ElementNode, dom.CommentNode:
			return true
		case dom.TextNode:
			if strings.TrimSpace(c.Text) != "" {
				return true
			}
		case dom.DocumentNode:
			if writesAny(c.Children) {
				return true
			}
		}
	}
	return false
}

// commentText is t as a comment may hold it: XML forbids "--" inside a
// comment and '-' before its closing "-->", so a space goes between every
// two dashes and after a final one.
func commentText(t string) string {
	for strings.Contains(t, "--") {
		t = strings.ReplaceAll(t, "--", "- -")
	}
	if strings.HasSuffix(t, "-") {
		t += " "
	}
	return t
}
