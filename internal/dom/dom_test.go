package dom

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNodeTypeString(t *testing.T) {
	cases := map[NodeType]string{
		DocumentNode: "document",
		ElementNode:  "element",
		TextNode:     "text",
		CommentNode:  "comment",
		DoctypeNode:  "doctype",
		NodeType(42): "NodeType(42)",
	}
	for ty, want := range cases {
		if got := ty.String(); got != want {
			t.Errorf("NodeType(%d).String() = %q, want %q", int(ty), got, want)
		}
	}
}

func TestAttrBasics(t *testing.T) {
	n := NewElement("div")
	if _, ok := n.Attr("class"); ok {
		t.Fatal("attr should be absent")
	}
	n.SetAttr("class", "a")
	if v, ok := n.Attr("class"); !ok || v != "a" {
		t.Fatalf("got %q,%v want a,true", v, ok)
	}
	n.SetAttr("class", "b")
	if v := n.AttrOr("class", "x"); v != "b" {
		t.Fatalf("SetAttr should replace, got %q", v)
	}
	if len(n.Attrs) != 1 {
		t.Fatalf("duplicate attr created: %v", n.Attrs)
	}
	if v := n.AttrOr("id", "fallback"); v != "fallback" {
		t.Fatalf("AttrOr default, got %q", v)
	}
}

func TestValAppend(t *testing.T) {
	n := NewElement("education")
	n.AppendVal("")
	if n.Val() != "" {
		t.Fatal("empty append should be no-op")
	}
	n.AppendVal("  Stanford  ")
	if n.Val() != "Stanford" {
		t.Fatalf("got %q", n.Val())
	}
	n.AppendVal("1998")
	if n.Val() != "Stanford 1998" {
		t.Fatalf("got %q", n.Val())
	}
}

func TestAppendInsertRemove(t *testing.T) {
	p := NewElement("ul")
	a := NewElement("li")
	b := NewElement("li")
	c := NewElement("li")
	p.AppendChild(a)
	p.AppendChild(c)
	p.InsertChildAt(1, b)
	if len(p.Children) != 3 || p.Children[1] != b {
		t.Fatalf("insert failed: %v", p.String())
	}
	if b.Parent != p {
		t.Fatal("parent not set")
	}
	if i := p.ChildIndex(b); i != 1 {
		t.Fatalf("ChildIndex = %d", i)
	}
	p.RemoveChild(b)
	if len(p.Children) != 2 || b.Parent != nil {
		t.Fatal("remove failed")
	}
	if i := p.ChildIndex(b); i != -1 {
		t.Fatalf("removed child index = %d", i)
	}
}

func TestAppendChildReparents(t *testing.T) {
	p1 := NewElement("a")
	p2 := NewElement("b")
	c := NewElement("c")
	p1.AppendChild(c)
	p2.AppendChild(c)
	if len(p1.Children) != 0 {
		t.Fatal("child not detached from old parent")
	}
	if c.Parent != p2 {
		t.Fatal("child not attached to new parent")
	}
}

func TestReplaceWith(t *testing.T) {
	p := NewElement("p")
	old := NewText("old")
	neu := NewElement("span")
	p.AppendChild(NewText("x"))
	p.AppendChild(old)
	old.ReplaceWith(neu)
	if p.Children[1] != neu || neu.Parent != p || old.Parent != nil {
		t.Fatalf("replace failed: %s", p.String())
	}
}

func TestSpliceUp(t *testing.T) {
	// (div "a" (group (x) (y)) "b") -> (div "a" (x) (y) "b")
	div := NewElement("div")
	g := NewElement("group")
	x := NewElement("x")
	y := NewElement("y")
	div.AppendChild(NewText("a"))
	div.AppendChild(g)
	g.AppendChild(x)
	g.AppendChild(y)
	div.AppendChild(NewText("b"))
	g.SpliceUp()
	if len(div.Children) != 4 {
		t.Fatalf("got %s", div.String())
	}
	if div.Children[1] != x || div.Children[2] != y {
		t.Fatalf("order wrong: %s", div.String())
	}
	if x.Parent != div || y.Parent != div {
		t.Fatal("parents not updated")
	}
	if err := div.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSpliceUpEmpty(t *testing.T) {
	div := NewElement("div")
	g := NewElement("group")
	div.AppendChild(g)
	g.SpliceUp()
	if len(div.Children) != 0 {
		t.Fatalf("got %s", div.String())
	}
}

func TestAdoptChildren(t *testing.T) {
	a := NewElement("a")
	b := NewElement("b")
	b.AppendChild(NewText("1"))
	b.AppendChild(NewText("2"))
	a.AppendChild(NewText("0"))
	a.AdoptChildren(b)
	if len(a.Children) != 3 || len(b.Children) != 0 {
		t.Fatalf("adopt failed: %s / %s", a.String(), b.String())
	}
	if a.Children[2].Parent != a {
		t.Fatal("parent not updated")
	}
}

func TestSiblingsDepthRoot(t *testing.T) {
	r := NewElement("r")
	a := NewElement("a")
	b := NewElement("b")
	c := NewElement("c")
	r.AppendChild(a)
	r.AppendChild(b)
	r.AppendChild(c)
	if r.ChildIndex(a) != 0 || r.ChildIndex(c) != 2 || r.ChildIndex(r) != -1 {
		t.Fatal("sibling positions broken")
	}
	gc := NewElement("gc")
	c.AppendChild(gc)
	if gc.Depth() != 2 || r.Depth() != 0 {
		t.Fatalf("depth: gc=%d r=%d", gc.Depth(), r.Depth())
	}
	if gc.Root() != r {
		t.Fatal("Root failed")
	}
}

func buildSample() *Node {
	// (#doc (html (body (h1 "Resume") (ul (li "a") (li "b")))))
	doc := NewDocument()
	html := NewElement("html")
	body := NewElement("body")
	h1 := NewElement("h1")
	h1.AppendChild(NewText("Resume"))
	ul := NewElement("ul")
	li1 := NewElement("li")
	li1.AppendChild(NewText("a"))
	li2 := NewElement("li")
	li2.AppendChild(NewText("b"))
	ul.AppendChild(li1)
	ul.AppendChild(li2)
	body.AppendChild(h1)
	body.AppendChild(ul)
	html.AppendChild(body)
	doc.AppendChild(html)
	return doc
}

func TestWalkOrderAndPrune(t *testing.T) {
	doc := buildSample()
	var tags []string
	doc.Walk(func(n *Node) bool {
		if n.Type == ElementNode {
			tags = append(tags, n.Tag)
		}
		return n.Tag != "ul" // prune below ul
	})
	want := "html body h1 ul"
	if got := strings.Join(tags, " "); got != want {
		t.Fatalf("walk order %q want %q", got, want)
	}
}

func TestWalkPost(t *testing.T) {
	doc := buildSample()
	var tags []string
	doc.WalkPost(func(n *Node) {
		if n.Type == ElementNode {
			tags = append(tags, n.Tag)
		}
	})
	want := "h1 li li ul body html"
	if got := strings.Join(tags, " "); got != want {
		t.Fatalf("post order %q want %q", got, want)
	}
}

func TestFindHelpers(t *testing.T) {
	doc := buildSample()
	if doc.FindElement("ul") == nil {
		t.Fatal("FindElement failed")
	}
	if doc.FindElement("nope") != nil {
		t.Fatal("FindElement should return nil")
	}
	if n := len(doc.FindElements("li")); n != 2 {
		t.Fatalf("FindElements li = %d", n)
	}
	texts := doc.FindAll(func(n *Node) bool { return n.Type == TextNode })
	if len(texts) != 3 {
		t.Fatalf("text nodes = %d", len(texts))
	}
}

func TestCounts(t *testing.T) {
	doc := buildSample()
	if got := doc.CountNodes(); got != 10 {
		t.Fatalf("CountNodes = %d", got)
	}
	if got := doc.CountElements(); got != 6 {
		t.Fatalf("CountElements = %d", got)
	}
}

func TestInnerTextAndAllText(t *testing.T) {
	doc := buildSample()
	if got := doc.InnerText(); got != "Resume a b" {
		t.Fatalf("InnerText = %q", got)
	}
	e := NewElement("x")
	e.SetVal("hello")
	e.AppendChild(NewText(" world "))
	all := e.AllText()
	if len(all) != 2 || all[0] != "hello" || all[1] != "world" {
		t.Fatalf("AllText = %v", all)
	}
}

func TestCloneIndependence(t *testing.T) {
	doc := buildSample()
	c := doc.Clone()
	if !doc.Equal(c) {
		t.Fatal("clone not equal")
	}
	if c.Parent != nil {
		t.Fatal("clone should be parentless")
	}
	c.FindElement("h1").AppendChild(NewText("mutated"))
	if doc.Equal(c) {
		t.Fatal("mutating clone affected original comparison")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEqual(t *testing.T) {
	a := Elem("x", []string{"k", "v", "a", "b"})
	b := Elem("x", []string{"a", "b", "k", "v"})
	if !a.Equal(b) {
		t.Fatal("attr order should not matter")
	}
	b.SetAttr("k", "other")
	if a.Equal(b) {
		t.Fatal("different attr values should differ")
	}
	if a.Equal(nil) {
		t.Fatal("non-nil != nil")
	}
	var n1, n2 *Node
	if !n1.Equal(n2) {
		t.Fatal("nil == nil")
	}
	c := Elem("x", []string{"k", "v", "a", "b"}, NewText("t"))
	if a.Equal(c) {
		t.Fatal("child count differs")
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	doc := buildSample()
	if err := doc.Validate(); err != nil {
		t.Fatal(err)
	}
	// Corrupt a parent pointer.
	li := doc.FindElements("li")[0]
	li.Parent = doc
	if err := doc.Validate(); err == nil {
		t.Fatal("expected validation error for wrong parent")
	}
	li.Parent = doc.FindElement("ul")
	// Duplicate node in tree.
	ul := doc.FindElement("ul")
	ul.Children = append(ul.Children, ul.Children[0])
	if err := doc.Validate(); err == nil {
		t.Fatal("expected validation error for duplicated node")
	}
}

func TestElemPanicsOnOddAttrs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Elem("x", []string{"only-name"})
}

func TestInsertChildAtPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewElement("x").InsertChildAt(1, NewElement("y"))
}

func TestString(t *testing.T) {
	n := Elem("a", []string{"href", "x"}, NewText("hi"), NewComment("c"))
	got := n.String()
	want := `(a href="x" "hi" <!--c-->)`
	if got != want {
		t.Fatalf("String = %s want %s", got, want)
	}
}

func TestLabel(t *testing.T) {
	if NewElement("p").Label() != "<p>" {
		t.Fatal("element label")
	}
	long := NewText(strings.Repeat("x", 30))
	if !strings.Contains(long.Label(), "...") {
		t.Fatal("long text should be truncated")
	}
	if NewDocument().Label() != "#document" {
		t.Fatal("document label")
	}
}

// randomTree builds a pseudo-random tree of up to n nodes for property tests.
func randomTree(r *rand.Rand, n int) *Node {
	tags := []string{"a", "b", "c", "d", "e"}
	root := NewElement("root")
	nodes := []*Node{root}
	for i := 0; i < n; i++ {
		p := nodes[r.Intn(len(nodes))]
		var c *Node
		if r.Intn(4) == 0 {
			c = NewText("t" + tags[r.Intn(len(tags))])
		} else {
			c = NewElement(tags[r.Intn(len(tags))])
			nodes = append(nodes, c)
		}
		p.AppendChild(c)
	}
	return root
}

func TestPropertyCloneEqualAndValid(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randomTree(r, int(size%60))
		cl := tr.Clone()
		return tr.Equal(cl) && cl.Validate() == nil && tr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySpliceUpPreservesTextAndValidity(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randomTree(r, int(size%60)+5)
		before := tr.InnerText()
		// Splice a random internal element (not root).
		els := tr.FindAll(func(n *Node) bool { return n.Type == ElementNode && n.Parent != nil })
		if len(els) == 0 {
			return true
		}
		els[r.Intn(len(els))].SpliceUp()
		return tr.Validate() == nil && tr.InnerText() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDetachReattachCountInvariant(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randomTree(r, int(size%40)+5)
		total := tr.CountNodes()
		els := tr.FindAll(func(n *Node) bool { return n.Parent != nil && n.Parent.Parent != nil })
		if len(els) == 0 {
			return true
		}
		n := els[r.Intn(len(els))]
		sub := n.CountNodes()
		n.Detach()
		if tr.CountNodes() != total-sub {
			return false
		}
		tr.AppendChild(n)
		return tr.CountNodes() == total && tr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
