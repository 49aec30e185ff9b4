package mapping

import (
	"testing"

	"webrev/internal/dom"
)

// TestTreeDistanceDegenerate pins the edit distance on the degenerate
// trees real corpora produce: empty (nil) trees, single nodes, trees whose
// only children are ignored node types, and deep single-child chains.
func TestTreeDistanceDegenerate(t *testing.T) {
	single := func(tag string) *dom.Node { return dom.NewElement(tag) }
	withComment := func(tag string) *dom.Node {
		n := dom.NewElement(tag)
		n.AppendChild(dom.NewComment("ignored"))
		return n
	}
	chain := func(depth int) *dom.Node {
		root := dom.NewElement("a")
		cur := root
		for i := 0; i < depth; i++ {
			c := dom.NewElement("a")
			cur.AppendChild(c)
			cur = c
		}
		return root
	}

	cases := []struct {
		name string
		a, b *dom.Node
		want float64
	}{
		{"nil vs nil", nil, nil, 0},
		{"nil vs single", nil, single("a"), 1},
		{"single vs nil", single("a"), nil, 1},
		{"single vs same single", single("a"), single("a"), 0},
		{"single vs renamed single", single("a"), single("b"), 1},
		{"comment-only child ignored", withComment("a"), single("a"), 0},
		{"nil vs chain", nil, chain(3), 4},
		{"chain vs longer chain", chain(2), chain(4), 2},
		{"single vs chain", single("a"), chain(3), 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := TreeDistance(tc.a, tc.b); got != tc.want {
				t.Fatalf("TreeDistance = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestTreeDistanceDegenerateSymmetry checks d(a,b) == d(b,a) under unit
// costs for the degenerate shapes.
func TestTreeDistanceDegenerateSymmetry(t *testing.T) {
	shapes := []*dom.Node{nil, dom.NewElement("a"), dom.NewElement("b")}
	deep := dom.NewElement("a")
	deep.AppendChild(dom.NewElement("b"))
	shapes = append(shapes, deep)
	for i, a := range shapes {
		for j, b := range shapes {
			ab := TreeDistance(a, b)
			ba := TreeDistance(b, a)
			if ab != ba {
				t.Fatalf("asymmetry between shapes %d and %d: %v vs %v", i, j, ab, ba)
			}
		}
	}
}
