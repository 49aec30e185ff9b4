package pathindex

import (
	"reflect"
	"sync"
	"testing"

	"webrev/internal/dom"
)

// TestFrozenAgreesWithIndex pins that every read the frozen form answers
// is identical to the mutable index it was frozen from.
func TestFrozenAgreesWithIndex(t *testing.T) {
	ix := Build(docs())
	f := ix.Freeze()
	if f.Docs() != ix.Docs() {
		t.Fatalf("docs = %d; want %d", f.Docs(), ix.Docs())
	}
	if got, want := f.Paths(), ix.Paths(); !reflect.DeepEqual(got, want) {
		t.Fatalf("paths = %v; want %v", got, want)
	}
	for _, p := range ix.Paths() {
		if got, want := f.Lookup(p), ix.Lookup(p); !reflect.DeepEqual(got, want) {
			t.Fatalf("Lookup(%s) diverged", p)
		}
		if got, want := f.DocFrequency(p), ix.DocFrequency(p); got != want {
			t.Fatalf("DocFrequency(%s) = %d; want %d", p, got, want)
		}
		gp, gok := f.AvgPosition(p)
		wp, wok := ix.AvgPosition(p)
		if gp != wp || gok != wok {
			t.Fatalf("AvgPosition(%s) = %v,%v; want %v,%v", p, gp, gok, wp, wok)
		}
	}
	for _, label := range []string{"resume", "degree", "date", "zzz"} {
		got, want := f.PathsEndingIn(label), ix.PathsEndingIn(label)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("PathsEndingIn(%s) = %v; want %v", label, got, want)
		}
	}
	if f.Lookup("no/such") != nil {
		t.Fatal("phantom path in frozen index")
	}
	if _, ok := f.AvgPosition("no/such"); ok {
		t.Fatal("phantom position in frozen index")
	}
}

// TestFrozenReadsAllocationFree pins the serving-path property the frozen
// form exists for: lookups, path expansion and doc frequencies allocate
// nothing per call.
func TestFrozenReadsAllocationFree(t *testing.T) {
	f := Build(docs()).Freeze()
	if allocs := testing.AllocsPerRun(50, func() {
		f.Lookup("resume/education/degree")
		f.PathsEndingIn("degree")
		f.DocFrequency("resume/education/degree")
		f.Paths()
		f.AvgPosition("resume/education")
	}); allocs != 0 {
		t.Errorf("frozen reads allocated %.0f objects per run; want 0", allocs)
	}
}

// TestDocFrequencyAllocationFree is the regression test for the per-call
// map[int]bool the old implementation allocated.
func TestDocFrequencyAllocationFree(t *testing.T) {
	ix := Build(docs())
	if allocs := testing.AllocsPerRun(50, func() {
		ix.DocFrequency("resume/education/degree")
		ix.DocFrequency("resume/contact")
		ix.DocFrequency("no/such")
	}); allocs != 0 {
		t.Errorf("DocFrequency allocated %.0f objects per run; want 0", allocs)
	}
}

// TestFrozenConcurrentReads hammers a frozen index from many goroutines;
// run under -race this proves the lock-free read claim.
func TestFrozenConcurrentReads(t *testing.T) {
	ds := docs()
	for i := 0; i < 4; i++ {
		ds = append(ds, ds...)
	}
	f := Build(ds).Freeze()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				for _, p := range f.Paths() {
					f.Lookup(p)
					f.DocFrequency(p)
				}
				f.PathsEndingIn("degree")
			}
		}()
	}
	wg.Wait()
}

// TestCountDocs: a path's document frequency counts the distinct
// documents among its postings, however many times each holds the path.
func TestCountDocs(t *testing.T) {
	cases := []struct {
		docs []int // the document of each posting of r/x, in order
		want int
	}{
		{nil, 0},
		{[]int{0}, 1},
		{[]int{0, 0, 0}, 1},
		{[]int{0, 1, 1, 3}, 3},
		{[]int{2, 2, 5, 7, 7, 7}, 3},
	}
	for _, c := range cases {
		trees := make([]*dom.Node, 8)
		for i := range trees {
			trees[i] = el("r")
		}
		for _, d := range c.docs {
			trees[d].AppendChild(el("x"))
		}
		ix := Build(trees)
		for _, got := range []int{ix.DocFrequency("r/x"), ix.Freeze().DocFrequency("r/x")} {
			if got != c.want {
				t.Errorf("DocFrequency over postings in docs %v = %d; want %d", c.docs, got, c.want)
			}
		}
	}
}

func BenchmarkFrozenLookup(b *testing.B) {
	f := Build(docs()).Freeze()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Lookup("resume/education/degree")
	}
}

func BenchmarkFreeze(b *testing.B) {
	ds := docs()
	for i := 0; i < 6; i++ {
		ds = append(ds, ds...)
	}
	ix := Build(ds)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Freeze()
	}
}
