package mapping

import (
	"math/rand"
	"testing"
)

// TestTreeDistanceAllocsSteadyState pins the pooled edit-distance scratch:
// once the pool is warm, repeated TreeDistance calls — postorder builds,
// label interning and the full DP — must not allocate. A regression here
// (per-call matrices, label string concatenation) multiplies allocations
// across every distance experiment E5 computes.
func TestTreeDistanceAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; the pin only holds in normal builds")
	}
	r := rand.New(rand.NewSource(7))
	a, b := randDoc(r, 40), randDoc(r, 40)
	// Warm the pool and grow the scratch to the working-set size.
	for i := 0; i < 4; i++ {
		TreeDistance(a, b)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		TreeDistance(a, b)
	}); allocs != 0 {
		t.Errorf("TreeDistance steady state: %v allocs/run, want 0", allocs)
	}
	// The identical-tree short-circuit is equally allocation-free.
	c := a.Clone()
	for i := 0; i < 4; i++ {
		TreeDistance(a, c)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		TreeDistance(a, c)
	}); allocs != 0 {
		t.Errorf("TreeDistance memo hit: %v allocs/run, want 0", allocs)
	}
}

// TestConformAllocs pins the count-only walker at BenchmarkConform's
// allocation count: the recorder's detail closures must stay on the stack,
// and no path or detail string may be built when no script is recorded.
func TestConformAllocs(t *testing.T) {
	d := resumeDTD(t)
	doc := benchConformDoc()
	Conform(doc, d)
	if allocs := testing.AllocsPerRun(100, func() {
		Conform(doc, d)
	}); allocs != 19 {
		t.Errorf("Conform: %v allocs/run, want 19", allocs)
	}
}
