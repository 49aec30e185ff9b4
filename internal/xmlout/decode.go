package xmlout

import (
	"fmt"
	"strings"
	"sync"
	"unicode/utf8"

	"webrev/internal/dom"
)

// UnmarshalElement decodes a document Marshal wrote for an element and
// returns that element. Every document a store holds is Marshal's output
// (DESIGN.md §8), so the decoder reads exactly that canonical form in one
// pass over src and rejects everything else:
//
//	doc     = `<?xml version="1.0" encoding="UTF-8"?>` LF item(0)
//	item(d) = pad(d) `<name attrs/>` LF
//	        | pad(d) `<name attrs>` LF item(d+1)… pad(d) `</name>` LF
//	        | pad(d) `<!--comment-->` LF | pad(d) text LF
//	pad(d)  = 2d spaces;  attrs = (` name="value"`)*
//
// Names are XML 1.0 Names with at most one colon. Attribute values take
// only the references WriteAttr emits (&amp; &lt; &quot; &#10; &#9;), text
// only those WriteText emits (&amp; &lt; &gt;), and every character must
// be an XML Char in valid UTF-8. Text is trimmed and runs to the line
// before the next `<`, so one run of text is one node. Item 0 is the only
// root, an element written with `>` has at least one item, and no
// attribute repeats. Everything else — another declaration, a stray
// blank, an unknown reference — is an error, so every accepted src
// satisfies Marshal(root) == src.
//
// Names and values come back verbatim, as substrings of src; a text or
// value with references is unescaped into a string of its own. The tree's
// nodes come from one slab, and its child and attribute lists are
// cut from one slab each with their capacity clipped, so an append copies
// out instead of overwriting a neighbour. Each slab is sized exactly from
// the finished pass, so a decoded tree keeps no slack resident and no
// input can overrun a slab.
func UnmarshalElement(src string) (*dom.Node, error) {
	d := decoderPool.Get().(*decoder)
	var root *dom.Node
	err := d.decode(src)
	if err == nil {
		root = d.tree()
	}
	d.release()
	return root, err
}

// EachElement decodes src in UnmarshalElement's one validating pass, so it
// accepts and rejects exactly the same inputs, but builds no tree. Once
// the pass succeeds it reports each element in document order: its depth
// (0 for the root), its name and its val attribute ("" when it has none),
// which are what Node.Tag and Node.Val would hold. As in UnmarshalElement,
// the name and val are substrings of src unless the val holds a
// reference. On an error nothing is reported.
func EachElement(src string, fn func(depth int, name, val string)) error {
	d := decoderPool.Get().(*decoder)
	err := d.decode(src)
	if err == nil {
		d.each(fn)
	}
	d.release()
	return err
}

// decoderPool recycles the decoder's record buffers. No pooled memory
// reaches a caller: tree copies the records into fresh slabs.
var decoderPool = sync.Pool{New: func() any {
	d := new(decoder)
	d.recs, d.attrs, d.open = d.recBuf[:0], d.attrBuf[:0], d.openBuf[:0]
	return d
}}

// release returns d to the pool. Pooled records must not pin src.
func (d *decoder) release() {
	clear(d.recs)
	clear(d.attrs)
	d.src, d.recs, d.attrs, d.open = "", d.recs[:0], d.attrs[:0], d.open[:0]
	decoderPool.Put(d)
}

// decoder is the state of one validating pass.
type decoder struct {
	src   string
	pos   int
	recs  []record   // every node in document order
	attrs []dom.Attr // every attribute in document order
	open  []int32    // records of the elements still open

	// Room for a typical stored document, so that a fresh decoder (a pool
	// miss) costs one allocation rather than one per buffer growth.
	recBuf  [128]record
	attrBuf [128]dom.Attr
	openBuf [32]int32
}

// record is one decoded node before the tree is wired.
type record struct {
	typ            dom.NodeType
	s              string // Tag or Text
	parent         int32  // record index; -1 for the root
	kids           int32
	attrLo, attrHi int32
}

// decode is the validating pass: it checks src and records its nodes and
// attributes in document order.
func (d *decoder) decode(src string) error {
	if !strings.HasPrefix(src, xmlHeader) {
		return fmt.Errorf("xmlout: missing the XML declaration %q", strings.TrimSpace(xmlHeader))
	}
	d.src, d.pos = src, len(xmlHeader)
	for {
		if err := d.item(); err != nil {
			return err
		}
		if len(d.open) == 0 {
			break
		}
	}
	if d.pos != len(src) {
		return d.errorf("content after the root element")
	}
	return nil
}

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("xmlout: offset %d: %s", d.pos, fmt.Sprintf(format, args...))
}

// item decodes one line's item at the current depth.
func (d *decoder) item() error {
	depth := len(d.open)
	if depth > 0 {
		if !d.pad(depth - 1) {
			return d.errorf("want an item indented by %d spaces", 2*depth)
		}
		if strings.HasPrefix(d.src[d.pos:], "</") {
			return d.end(depth)
		}
		if !d.pad(1) {
			return d.errorf("want an item indented by %d spaces", 2*depth)
		}
	}
	switch rest := d.src[d.pos:]; {
	case rest == "":
		return d.errorf("unexpected end of input")
	case depth == 0 && (rest[0] != '<' || strings.HasPrefix(rest, "<!")):
		return d.errorf("want the root element")
	case strings.HasPrefix(rest, "<!--"):
		return d.comment()
	case rest[0] == '<':
		return d.start()
	}
	return d.text()
}

// pad consumes the indentation of depth and reports whether it was there.
func (d *decoder) pad(depth int) bool {
	for n := 2 * depth; n > 0; {
		k := min(n, len(indentPad))
		if !strings.HasPrefix(d.src[d.pos:], indentPad[:k]) {
			return false
		}
		d.pos += k
		n -= k
	}
	return true
}

// add records a node as the next child of the innermost open element.
func (d *decoder) add(typ dom.NodeType, s string) int {
	parent := int32(-1)
	if n := len(d.open); n > 0 {
		parent = d.open[n-1]
		d.recs[parent].kids++
	}
	d.recs = append(d.recs, record{typ: typ, s: s, parent: parent})
	return len(d.recs) - 1
}

// start decodes a start tag, `<name attrs/>` or `<name attrs>`.
func (d *decoder) start() error {
	d.pos++
	name, err := d.name()
	if err != nil {
		return err
	}
	i := d.add(dom.ElementNode, name)
	lo := len(d.attrs)
	for d.pos < len(d.src) && d.src[d.pos] == ' ' {
		d.pos++
		an, err := d.name()
		if err != nil {
			return err
		}
		if !strings.HasPrefix(d.src[d.pos:], `="`) {
			return d.errorf(`want ="value" after attribute %s`, an)
		}
		d.pos += 2
		v, escaped, err := d.value()
		if err != nil {
			return err
		}
		for _, a := range d.attrs[lo:] {
			if a.Name == an {
				return d.errorf("attribute %s repeated on <%s>", an, name)
			}
		}
		if escaped {
			v = unescape(v)
		}
		d.attrs = append(d.attrs, dom.Attr{Name: an, Value: v})
	}
	d.recs[i].attrLo, d.recs[i].attrHi = int32(lo), int32(len(d.attrs))
	switch rest := d.src[d.pos:]; {
	case strings.HasPrefix(rest, "/>\n"):
		d.pos += 3
	case strings.HasPrefix(rest, ">\n"):
		d.pos += 2
		d.open = append(d.open, int32(i))
	default:
		return d.errorf("malformed start tag <%s", name)
	}
	return nil
}

// end decodes the end tag of the innermost open element, at depth-1.
func (d *decoder) end(depth int) error {
	r := d.recs[d.open[depth-1]]
	if r.kids == 0 {
		return d.errorf("<%s> has no content; Marshal writes <%s/>", r.s, r.s)
	}
	rest := d.src[d.pos+2:]
	if !strings.HasPrefix(rest, r.s) || !strings.HasPrefix(rest[len(r.s):], ">\n") {
		return d.errorf("want </%s>", r.s)
	}
	d.pos += 2 + len(r.s) + 2
	d.open = d.open[:depth-1]
	return nil
}

// comment decodes `<!--comment-->`. The comment holds no "--", as Marshal
// rewrites it, and does not end in '-'.
func (d *decoder) comment() error {
	d.pos += len("<!--")
	rest := d.src[d.pos:]
	n := strings.Index(rest, "--")
	if n < 0 || !strings.HasPrefix(rest[n:], "-->\n") {
		return d.errorf(`comment holds "--" or does not end its line with "-->"`)
	}
	if _, _, bad := scanChars(rest[:n], &commentChars, nil); bad >= 0 {
		d.pos += bad
		return d.errorf("comment holds a byte that is not an XML character")
	}
	d.add(dom.CommentNode, rest[:n])
	d.pos += n + len("-->\n")
	return nil
}

// text decodes a run of text: everything up to the line before the next
// `<`, which must hold only the next item's indentation.
func (d *decoder) text() error {
	rest := d.src[d.pos:]
	end, escaped, bad := scanChars(rest, &textChars, textRefs)
	if bad >= 0 {
		d.pos += bad
		return d.errorf("text holds a character or reference WriteText does not write")
	}
	raw := rest[:end]
	nl := strings.LastIndexByte(raw, '\n')
	if end == len(rest) || nl < 0 || strings.TrimLeft(raw[nl+1:], " ") != "" {
		return d.errorf("text does not end its line before an item")
	}
	text := raw[:nl]
	if text == "" || strings.TrimSpace(text) != text {
		return d.errorf("text is empty or not trimmed")
	}
	if escaped {
		text = unescape(text)
	}
	d.add(dom.TextNode, text)
	d.pos += nl + 1
	return nil
}

// value decodes an attribute value up to its closing quote and reports
// whether it holds references.
func (d *decoder) value() (v string, escaped bool, err error) {
	rest := d.src[d.pos:]
	end, escaped, bad := scanChars(rest, &valueChars, attrRefs)
	if bad >= 0 {
		d.pos += bad
		return "", false, d.errorf("attribute value holds a character or reference WriteAttr does not write")
	}
	if end == len(rest) {
		return "", false, d.errorf("unterminated attribute value")
	}
	d.pos += end + 1
	return rest[:end], escaped, nil
}

// Character classes of ASCII bytes, per context.
const (
	charOK   = iota
	charBad  // never written raw here
	charRef  // '&', which must start one of the context's references
	charStop // ends the run
)

var (
	textChars    = charClasses('<', true, "\t\n\r", ">")
	valueChars   = charClasses('"', true, "\r", "<")
	commentChars = charClasses(0, false, "\t\n\r", "")
)

// charClasses classifies ASCII bytes for one context: stop (unless 0) ends
// the run, '&' starts a reference when refs is set, and neither the control
// bytes outside controls nor the bytes in bad may stand raw.
func charClasses(stop byte, refs bool, controls, bad string) (t [utf8.RuneSelf]uint8) {
	for c := range t {
		b := byte(c)
		switch {
		case b == stop && stop != 0:
			t[c] = charStop
		case b == '&' && refs:
			t[c] = charRef
		case b < ' ' && strings.IndexByte(controls, b) < 0, strings.IndexByte(bad, b) >= 0:
			t[c] = charBad
		}
	}
	return t
}

// scanChars checks s up to its first stop byte under class, with refs the
// references allowed. It returns the stop's offset (len(s) when there is
// none), whether a reference occurred, and the offset of the first byte
// not allowed there, or -1. A non-ASCII character must be valid UTF-8 and
// an XML Char, which excludes U+FFFE and U+FFFF (valid UTF-8 already
// excludes the surrogates).
func scanChars(s string, class *[utf8.RuneSelf]uint8, refs []string) (end int, escaped bool, bad int) {
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			r, w := utf8.DecodeRuneInString(s[i:])
			if w == 1 || r == 0xFFFE || r == 0xFFFF {
				return i, escaped, i
			}
			i += w
			continue
		}
		switch class[c] {
		case charStop:
			return i, escaped, -1
		case charBad:
			return i, escaped, i
		case charRef:
			w := refLen(s[i:], refs)
			if w == 0 {
				return i, escaped, i
			}
			escaped = true
			i += w
			continue
		}
		i++
	}
	return len(s), escaped, -1
}

// name decodes an XML Name with at most one colon: a namespace-aware
// reader, Go's standard XML decoder among them, rejects more.
func (d *decoder) name() (string, error) {
	s, start := d.src, d.pos
	i, colons := start, 0
	for i < len(s) {
		c := s[i]
		if c < utf8.RuneSelf {
			k := asciiName[c]
			if k == 0 || i == start && k != nameStart {
				break
			}
			if c == ':' {
				colons++
			}
			i++
			continue
		}
		r, w := utf8.DecodeRuneInString(s[i:])
		if w == 1 || !isNameRune(r, i == start) {
			break
		}
		i += w
	}
	if i == start || colons > 1 {
		return "", d.errorf("want an XML name")
	}
	d.pos = i
	return s[start:i], nil
}

// tree wires the records into nodes cut from exactly sized slabs. Records
// are in document order, so each parent's child list is cut before its
// first child is appended, and the kids counts sum to one less than the
// node count: every node but the root is one child.
func (d *decoder) tree() *dom.Node {
	nodes := make([]dom.Node, len(d.recs))
	kids := make([]*dom.Node, len(d.recs)-1)
	var attrs []dom.Attr
	if len(d.attrs) > 0 {
		attrs = make([]dom.Attr, len(d.attrs))
		copy(attrs, d.attrs)
	}
	for i := range d.recs {
		r, n := &d.recs[i], &nodes[i]
		n.Type = r.typ
		if r.typ == dom.ElementNode {
			n.Tag = r.s
		} else {
			n.Text = r.s
		}
		if r.attrHi > r.attrLo {
			n.Attrs = attrs[r.attrLo:r.attrHi:r.attrHi]
		}
		if r.kids > 0 {
			n.Children, kids = kids[:0:r.kids], kids[r.kids:]
		}
		if r.parent >= 0 {
			p := &nodes[r.parent]
			n.Parent = p
			p.Children = append(p.Children, n)
		}
	}
	return &nodes[0]
}

// each reports the recorded elements to fn in document order. A record's
// depth is the number of open elements left once those that are not its
// parent are closed; the open stack is empty after a successful pass.
func (d *decoder) each(fn func(depth int, name, val string)) {
	open := d.open
	for i := range d.recs {
		r := &d.recs[i]
		if r.typ != dom.ElementNode {
			continue
		}
		for len(open) > 0 && open[len(open)-1] != r.parent {
			open = open[:len(open)-1]
		}
		val := ""
		for _, a := range d.attrs[r.attrLo:r.attrHi] {
			if a.Name == dom.ValAttr {
				val = a.Value
				break
			}
		}
		fn(len(open), r.s, val)
		open = append(open, int32(i))
	}
	d.open = open[:0]
}

// The references each escaper writes (internal/entity).
var (
	textRefs = []string{"&amp;", "&lt;", "&gt;"}
	attrRefs = []string{"&amp;", "&lt;", "&quot;", "&#10;", "&#9;"}
)

// refLen returns the length of the reference in refs that starts s, or 0.
func refLen(s string, refs []string) int {
	for _, r := range refs {
		if strings.HasPrefix(s, r) {
			return len(r)
		}
	}
	return 0
}

// unescape returns s, a text or value whose references were checked, with
// its references replaced.
func unescape(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for {
		amp := strings.IndexByte(s, '&')
		if amp < 0 {
			break
		}
		b.WriteString(s[:amp])
		s = s[amp:]
		for _, r := range refs {
			if strings.HasPrefix(s, r.ref) {
				b.WriteByte(r.c)
				s = s[len(r.ref):]
				break
			}
		}
	}
	b.WriteString(s)
	return b.String()
}

// refs maps every reference the escapers write to its character.
var refs = []struct {
	ref string
	c   byte
}{{"&amp;", '&'}, {"&lt;", '<'}, {"&gt;", '>'}, {"&quot;", '"'}, {"&#10;", '\n'}, {"&#9;", '\t'}}

// Name character classes of ASCII bytes.
const (
	nameChar  = 1 // NameChar but not NameStartChar: - . 0-9
	nameStart = 2 // NameStartChar: : _ A-Z a-z
)

var asciiName = func() (t [utf8.RuneSelf]uint8) {
	for c := range t {
		switch {
		case c == ':' || c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z':
			t[c] = nameStart
		case c == '-' || c == '.' || '0' <= c && c <= '9':
			t[c] = nameChar
		}
	}
	return t
}()

// isNameRune reports whether the non-ASCII rune r is a NameStartChar
// (start) or a NameChar, per XML 1.0 fifth edition §2.3.
func isNameRune(r rune, start bool) bool {
	switch {
	case 0xC0 <= r && r <= 0xD6, 0xD8 <= r && r <= 0xF6, 0xF8 <= r && r <= 0x2FF,
		0x370 <= r && r <= 0x37D, 0x37F <= r && r <= 0x1FFF, 0x200C <= r && r <= 0x200D,
		0x2070 <= r && r <= 0x218F, 0x2C00 <= r && r <= 0x2FEF, 0x3001 <= r && r <= 0xD7FF,
		0xF900 <= r && r <= 0xFDCF, 0xFDF0 <= r && r <= 0xFFFD, 0x10000 <= r && r <= 0xEFFFF:
		return true
	}
	return !start && (r == 0xB7 || 0x300 <= r && r <= 0x36F || 0x203F <= r && r <= 0x2040)
}
