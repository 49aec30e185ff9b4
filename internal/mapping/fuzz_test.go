package mapping

import (
	"testing"

	"webrev/internal/corpus"
	"webrev/internal/dom"
	"webrev/internal/htmlparse"
)

// fuzzTreeCap bounds the node count fed to the quadratic Zhang–Shasha
// matrices so the fuzzer spends its budget on structural variety rather
// than one giant O(n²·m²) case.
const fuzzTreeCap = 250

// pruneTo returns root with subtrees pruned so at most cap element/text
// nodes remain (depth-first keep order).
func pruneTo(root *dom.Node, capN int) *dom.Node {
	kept := 0
	var walk func(n *dom.Node)
	walk = func(n *dom.Node) {
		out := n.Children[:0]
		for _, c := range n.Children {
			if c.Type != dom.ElementNode && c.Type != dom.TextNode {
				continue
			}
			if kept >= capN {
				break
			}
			kept++
			out = append(out, c)
			walk(c)
		}
		n.Children = out
	}
	kept++ // the root itself
	walk(root)
	return root
}

// FuzzTreeDistance parses two fuzzed HTML documents and checks the edit
// distance invariants: no panic on any input, distance non-negative,
// symmetric, zero against itself, and — the memo equivalence —
// bit-identical to the textbook reference.
func FuzzTreeDistance(f *testing.F) {
	g := corpus.New(corpus.Options{Seed: 23})
	rs := g.Corpus(3)
	seeds := [][2]string{
		{"", ""},
		{"<p>a</p>", "<p>b</p>"},
		{"<h1>Jane</h1><ul><li>x<li>y</ul>", "<h1>Jane</h1>"},
		{"<table><tr><td>a</table>", "\x00<h1>\xff</h1>"},
		{rs[0].HTML, rs[1].HTML},
		{rs[1].HTML, rs[2].HTML},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, src1, src2 string) {
		if len(src1) > 4096 {
			src1 = src1[:4096]
		}
		if len(src2) > 4096 {
			src2 = src2[:4096]
		}
		t1 := pruneTo(htmlparse.Parse(src1), fuzzTreeCap)
		t2 := pruneTo(htmlparse.Parse(src2), fuzzTreeCap)
		d := TreeDistance(t1, t2)
		if d < 0 {
			t.Fatalf("negative distance %v", d)
		}
		if got := treeDistanceNaive(t1, t2); got != d {
			t.Fatalf("memo distance %v != naive %v", d, got)
		}
		if back := TreeDistance(t2, t1); back != d {
			t.Fatalf("asymmetric: d(a,b)=%v d(b,a)=%v", d, back)
		}
		if self := TreeDistance(t1, t1); self != 0 {
			t.Fatalf("d(t,t) = %v", self)
		}
	})
}
