package schema

import (
	"encoding/json"
	"math/big"
	"math/rand"
	"testing"
)

// bigCorpus replicates the Figure-2 trees into an n-document corpus with
// per-document variation, mirroring BenchmarkDiscover's shape.
func bigCorpus(n int) []*DocPaths {
	base := corpus()
	out := make([]*DocPaths, 0, n)
	for i := 0; len(out) < n; i++ {
		out = append(out, base[i%len(base)])
	}
	return out
}

// TestShardedAccumulatorsMergeExactly checks byte-identical merged wire
// state: folding a corpus through any sharding and merging in any
// association must marshal to exactly the bytes of the serial accumulator.
func TestShardedAccumulatorsMergeExactly(t *testing.T) {
	docs := bigCorpus(60)
	serial := NewAccumulator(0)
	for i, d := range docs {
		serial.Add(i, d)
	}
	want, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 5, 9} {
		shards := make([]*Accumulator, w)
		for k := range shards {
			shards[k] = NewAccumulator(0)
		}
		for i, d := range docs {
			shards[i%w].Add(i, d)
		}
		// Right-to-left merge order — the opposite association of the
		// build engine's left fold.
		acc := shards[w-1]
		for k := w - 2; k >= 0; k-- {
			if err := shards[k].Merge(acc); err != nil {
				t.Fatal(err)
			}
			acc = shards[k]
		}
		got, err := json.Marshal(acc)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("shards=%d: merged accumulator wire bytes differ from serial", w)
		}
	}
}

// TestFreezeCachedAllocs pins the frozen path table cache: after the first
// Freeze, re-freezing an unmutated accumulator is a pointer return.
func TestFreezeCachedAllocs(t *testing.T) {
	a := NewAccumulator(0)
	for i, d := range corpus() {
		a.Add(i, d)
	}
	first := a.Freeze()
	if allocs := testing.AllocsPerRun(100, func() {
		if a.Freeze() != first {
			t.Fatal("cached Freeze returned a different table")
		}
	}); allocs != 0 {
		t.Errorf("cached Freeze: %v allocs/run, want 0", allocs)
	}
	// Mutation invalidates the cache.
	a.Add(3, Extract(treeA()))
	if a.Freeze() == first {
		t.Fatal("Freeze after Add returned the stale table")
	}
}

// TestFreezeTableShape checks the interned edges against the string-keyed
// ground truth.
func TestFreezeTableShape(t *testing.T) {
	a := NewAccumulator(0)
	for i, d := range corpus() {
		a.Add(i, d)
	}
	tab := a.Freeze()
	if tab.Len() != len(a.paths) {
		t.Fatalf("table len = %d, want %d", tab.Len(), len(a.paths))
	}
	for id := int32(0); id < int32(tab.Len()); id++ {
		p := tab.Path(id)
		if got := tab.labels[id]; got != LastLabel(p) {
			t.Fatalf("label[%s] = %q", p, got)
		}
		if par := tab.parent[id]; par >= 0 {
			if tab.Path(par) != ParentPath(p) {
				t.Fatalf("parent[%s] = %s, want %s", p, tab.Path(par), ParentPath(p))
			}
		} else if ParentPath(p) != "" {
			t.Fatalf("path %s should have a parent", p)
		}
		if tab.aggs[id] != a.paths[p] {
			t.Fatalf("agg[%s] not shared with accumulator", p)
		}
	}
	if len(tab.roots) != 1 || tab.Path(tab.roots[0]) != "resume" {
		t.Fatalf("roots = %v", tab.roots)
	}
}

// TestPosRatExactness drives posRat against a big.Rat reference through
// random fraction streams, including values that force the overflow spill,
// checking the represented rational is identical at every step.
func TestPosRatExactness(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		var p posRat
		ref := new(big.Rat)
		for step := 0; step < 40; step++ {
			var num, den int64
			if trial%3 == 0 && step%7 == 3 {
				// Huge co-prime-ish terms to force int64 overflow spills.
				num = (1 << 60) + r.Int63n(1000)
				den = (1 << 59) + 2*r.Int63n(1000) + 1
			} else {
				num = r.Int63n(50)
				den = 1 + r.Int63n(12)
			}
			p.addFrac(num, den)
			ref.Add(ref, new(big.Rat).SetFrac64(num, den))
			if p.rat().Cmp(ref) != 0 {
				t.Fatalf("trial %d step %d: posRat %s != ref %s (spilled=%v)",
					trial, step, p.rat(), ref, p.r != nil)
			}
		}
	}
}

// TestPosRatMergePaths checks addRat across all representation pairs
// (small+small, small+big, big+small, big+big) and setRat restore.
func TestPosRatMergePaths(t *testing.T) {
	small := func(n, d int64) *posRat { p := &posRat{}; p.addFrac(n, d); return p }
	spilled := func(n, d int64) *posRat { p := small(n, d); p.spill(); return p }
	cases := []struct{ a, b *posRat }{
		{small(1, 3), small(1, 6)},
		{small(1, 3), spilled(1, 6)},
		{spilled(1, 3), small(1, 6)},
		{spilled(1, 3), spilled(1, 6)},
		{&posRat{}, small(2, 5)},
		{small(2, 5), &posRat{}},
	}
	for i, c := range cases {
		want := new(big.Rat).Add(c.a.rat(), c.b.rat())
		c.a.addRat(c.b)
		if c.a.rat().Cmp(want) != 0 {
			t.Fatalf("case %d: got %s want %s", i, c.a.rat(), want)
		}
	}
	var p posRat
	huge := new(big.Rat).SetFrac(new(big.Int).Lsh(big.NewInt(1), 80), big.NewInt(3))
	p.setRat(huge)
	if p.r == nil || p.rat().Cmp(huge) != 0 {
		t.Fatalf("setRat huge: %s (spilled=%v)", p.rat(), p.r != nil)
	}
	var q posRat
	q.setRat(new(big.Rat).SetFrac64(7, 2))
	if q.r != nil || q.num != 7 || q.den != 2 {
		t.Fatalf("setRat small: %+v", q)
	}
}
