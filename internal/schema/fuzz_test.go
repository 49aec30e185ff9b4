package schema

import (
	"math"
	"os"
	"reflect"
	"testing"

	"webrev/internal/htmlparse"
)

// FuzzMinePaths drives the whole extract→fold→freeze→mine chain on fuzzed
// markup: the miner must never panic, supports and ratios must stay in
// range, the discovered paths must be a prefix-closed subset of the
// extracted universe, and folding contiguous ranges into separate
// accumulators and merging them — the split a sharded build makes — must
// equal the serial fold exactly.
func FuzzMinePaths(f *testing.F) {
	seeds := []string{
		"",
		"<resume><contact/><education><degree/><date/></education></resume>",
		"<a><b><c/></b><b/></a><a><b/></a>",
		"<ul><li>x<li>y<li>z</ul>",
		"\x00<h1>\xff</h1>",
	}
	if golden, err := os.ReadFile("../../testdata/golden/conformed.xml"); err == nil {
		s := string(golden)
		seeds = append(seeds, s)
		if len(s) > 300 {
			seeds = append(seeds, s[:300], s[len(s)/2:])
		}
	}
	for _, s := range seeds {
		f.Add(s, 0.5, 0.1)
	}
	f.Fuzz(func(t *testing.T, src string, sup, ratio float64) {
		if len(src) > 8192 {
			src = src[:8192]
		}
		if math.IsNaN(sup) || sup < 0 || sup > 1 {
			sup = 0.5
		}
		if math.IsNaN(ratio) || ratio < 0 || ratio > 1 {
			ratio = 0.1
		}
		// Carve the input into a few documents so multi-doc statistics
		// (support fractions, merge behavior) are exercised.
		var docs []*DocPaths
		for i := 0; i < 3; i++ {
			part := src[len(src)*i/3:]
			root := htmlparse.Parse(part)
			docs = append(docs, Extract(root))
		}
		m := &Miner{SupThreshold: sup, RatioThreshold: ratio}
		serial := m.Discover(docs)
		// Shards [0,1) and [1,3), each folded under global indices.
		merged, rest := NewAccumulator(0), NewAccumulator(0)
		merged.Add(0, docs[0])
		rest.Add(1, docs[1])
		rest.Add(2, docs[2])
		if err := merged.Merge(rest); err != nil {
			t.Fatal(err)
		}
		if sharded := m.DiscoverStats(merged); !reflect.DeepEqual(serial, sharded) {
			t.Fatalf("merged shard fold diverged from serial:\n%s\nvs\n%s", serial, sharded)
		}
		universe := make(map[string]bool)
		for _, d := range docs {
			for p := range d.Paths {
				universe[p] = true
			}
		}
		for _, p := range serial.Paths() {
			if !universe[p] {
				t.Fatalf("discovered path %q not in extracted universe", p)
			}
			if par := ParentPath(p); par != "" && !serial.Contains(par) {
				t.Fatalf("schema not prefix-closed: %q present, parent %q missing", p, par)
			}
		}
		var check func(n *Node)
		check = func(n *Node) {
			if n.Support < 0 || n.Support > 1 || math.IsNaN(n.Support) {
				t.Fatalf("support out of range at %s: %v", n.Path, n.Support)
			}
			if n.Ratio < 0 || math.IsNaN(n.Ratio) {
				t.Fatalf("ratio out of range at %s: %v", n.Path, n.Ratio)
			}
			for _, c := range n.Children {
				check(c)
			}
		}
		for _, r := range serial.Roots {
			check(r)
		}
	})
}
