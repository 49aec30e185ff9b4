package mapping

import "webrev/internal/dom"

// naiveTree is the textbook Zhang–Shasha postorder form of a tree: one
// label string per node (a kind byte, then the tag or the text, so text
// never matches a same-spelled element), each node's leftmost leaf
// descendant, and the keyroots in ascending order.
type naiveTree struct {
	labels []string
	lmld   []int
	keyrs  []int
}

func newNaiveTree(root *dom.Node) *naiveTree {
	t := &naiveTree{}
	if root == nil {
		return t
	}
	var walk func(n *dom.Node) int
	walk = func(n *dom.Node) int {
		lm := -1
		for _, c := range n.Children {
			if c.Type != dom.ElementNode && c.Type != dom.TextNode {
				continue
			}
			if l := walk(c); lm == -1 {
				lm = l
			}
		}
		if lm == -1 {
			lm = len(t.labels)
		}
		label := "e" + n.Tag
		if n.Type == dom.TextNode {
			label = "t" + n.Text
		}
		t.labels = append(t.labels, label)
		t.lmld = append(t.lmld, lm)
		return lm
	}
	walk(root)
	// A keyroot is the last node in postorder with its leftmost leaf.
	last := make(map[int]int)
	for i, l := range t.lmld {
		last[l] = i
	}
	for i, l := range t.lmld {
		if last[l] == i {
			t.keyrs = append(t.keyrs, i)
		}
	}
	return t
}

// treeDistanceNaive is the reference TreeDistance is checked against: the
// textbook unit-cost Zhang–Shasha recurrence over freshly allocated
// matrices, comparing label strings, with no pool, no interning and no
// identical-tree short-circuit.
func treeDistanceNaive(t1, t2 *dom.Node) float64 {
	a, b := newNaiveTree(t1), newNaiveTree(t2)
	n, m := len(a.labels), len(b.labels)
	if n == 0 || m == 0 {
		return float64(n + m)
	}
	td := make([][]float64, n)
	for i := range td {
		td[i] = make([]float64, m)
	}
	for _, i := range a.keyrs {
		for _, j := range b.keyrs {
			li, lj := a.lmld[i], b.lmld[j]
			// fd[x][y] is the distance between the forests a[li..li+x-1]
			// and b[lj..lj+y-1].
			fd := make([][]float64, i-li+2)
			for x := range fd {
				fd[x] = make([]float64, j-lj+2)
				fd[x][0] = float64(x)
			}
			for y := range fd[0] {
				fd[0][y] = float64(y)
			}
			for di := li; di <= i; di++ {
				x := di - li + 1
				for dj := lj; dj <= j; dj++ {
					y := dj - lj + 1
					del, ins := fd[x-1][y]+1, fd[x][y-1]+1
					if a.lmld[di] == li && b.lmld[dj] == lj {
						ren := fd[x-1][y-1]
						if a.labels[di] != b.labels[dj] {
							ren++
						}
						fd[x][y] = min(del, ins, ren)
						td[di][dj] = fd[x][y]
						continue
					}
					fd[x][y] = min(del, ins, fd[a.lmld[di]-li][b.lmld[dj]-lj]+td[di][dj])
				}
			}
		}
	}
	return td[n-1][m-1]
}
