// Package xmlout serializes dom trees as XML documents and parses XML back
// into dom trees, giving the pipeline a durable on-disk representation for
// the XML repository the paper's system feeds (§1, §5).
package xmlout

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
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
		b.WriteString(strings.ReplaceAll(n.Text, "--", "- -"))
		b.WriteString("-->\n")
		return
	case dom.DoctypeNode:
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
	if len(n.Children) == 0 {
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

// Unmarshal parses an XML document into a dom tree rooted at a DocumentNode.
// It uses the stdlib decoder, so the input must be well-formed XML (unlike
// the tolerant HTML parser in internal/htmlparse).
func Unmarshal(src string) (*dom.Node, error) {
	return UnmarshalReader(strings.NewReader(src))
}

// UnmarshalReader parses XML from r into a dom tree.
func UnmarshalReader(r io.Reader) (*dom.Node, error) {
	dec := xml.NewDecoder(r)
	doc := dom.NewDocument()
	cur := doc
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmlout: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			el := dom.NewElement(t.Name.Local)
			for _, a := range t.Attr {
				el.SetAttr(a.Name.Local, a.Value)
			}
			cur.AppendChild(el)
			cur = el
		case xml.EndElement:
			if cur.Parent == nil {
				return nil, fmt.Errorf("xmlout: unbalanced end element </%s>", t.Name.Local)
			}
			cur = cur.Parent
		case xml.CharData:
			if txt := string(t); strings.TrimSpace(txt) != "" {
				cur.AppendChild(dom.NewText(strings.TrimSpace(txt)))
			}
		case xml.Comment:
			cur.AppendChild(dom.NewComment(string(t)))
		}
	}
	if cur != doc {
		return nil, fmt.Errorf("xmlout: unclosed element <%s>", cur.Tag)
	}
	return doc, nil
}

// UnmarshalElement parses XML and returns the single root element.
func UnmarshalElement(src string) (*dom.Node, error) {
	doc, err := Unmarshal(src)
	if err != nil {
		return nil, err
	}
	var root *dom.Node
	for _, c := range doc.Children {
		if c.Type == dom.ElementNode {
			if root != nil {
				return nil, fmt.Errorf("xmlout: multiple root elements")
			}
			root = c
		}
	}
	if root == nil {
		return nil, fmt.Errorf("xmlout: no root element")
	}
	root.Detach()
	return root, nil
}
