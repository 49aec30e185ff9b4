package schema

import (
	"fmt"
	"math/big"
)

// Accumulator folds the per-document label-path statistics the miner needs
// into a mergeable summary, so schema discovery can run incrementally: N
// workers each fold their shard of the corpus with Add, the shards combine
// with Merge (an exactly commutative and associative operation), and
// Miner.DiscoverStats mines the combined summary — producing the same
// schema, support and supportRatio values as Miner.Discover over the whole
// corpus in one slice. This is what lets the sharded build (core.
// BuildShardedFrom) drop each document's tree as soon as its statistics are
// folded, keeping memory bounded by the summary instead of the corpus.
//
// Exactness is what makes Merge order-free. Document counts are integers;
// per-document average child positions are accumulated as exact rational
// sums (posRat — float addition is not associative, so a float accumulator
// would make the result depend on shard boundaries). Every field is a sum
// over the folded documents, so Subtract retires one document exactly and
// any accumulator serves both the batch build and the continuous one.
type Accumulator struct {
	// rep is the sibling-multiplicity threshold (§3.3) repetition counts
	// were folded with; accumulators only merge when they agree.
	rep   int
	docs  int
	paths map[string]*pathAgg
	// table caches Freeze()'s interned path table; any mutation (Add,
	// Merge, Subtract, UnmarshalJSON) invalidates it.
	table *PathTable
}

// pathAgg aggregates one label path's statistics across the documents a
// shard has seen.
type pathAgg struct {
	docs    int    // documents containing the path (support count)
	posSum  posRat // exact sum of per-document average child positions
	posDocs int    // documents contributing to posSum
	repDocs int    // documents where the path repeats (Mult >= rep)
}

// NewAccumulator returns an empty accumulator using the given repetition
// threshold (<= 0 selects DefaultRepThreshold).
func NewAccumulator(repThreshold int) *Accumulator {
	if repThreshold <= 0 {
		repThreshold = DefaultRepThreshold
	}
	return &Accumulator{rep: repThreshold, paths: make(map[string]*pathAgg)}
}

// NewDeltaAccumulator is NewAccumulator, kept for perfbench's recrawl.
func NewDeltaAccumulator(repThreshold int) *Accumulator { return NewAccumulator(repThreshold) }

// RepThreshold returns the repetition threshold the accumulator folds with.
func (a *Accumulator) RepThreshold() int { return a.rep }

// Docs returns the number of documents folded in so far.
func (a *Accumulator) Docs() int { return a.docs }

// Add folds one document's path statistics. Every statistic is a sum over
// documents, so the result does not depend on fold order; doc, the
// document's corpus index, is not read (perfbench still passes it). Each
// document must be folded into exactly one accumulator of a merge group;
// the merged result then equals folding every document into one
// accumulator.
func (a *Accumulator) Add(doc int, d *DocPaths) {
	a.docs++
	a.table = nil
	for p := range d.Paths {
		ag := a.paths[p]
		if ag == nil {
			ag = &pathAgg{}
			a.paths[p] = ag
		}
		ag.docs++
		if n := d.PosCount[p]; n > 0 {
			// Positions are small integers, so PosSum is an exact
			// integer-valued float; the per-document average enters the sum
			// as the exact rational PosSum/PosCount.
			ag.posSum.addFrac(int64(d.PosSum[p]), int64(n))
			ag.posDocs++
		}
		if d.Mult[p] >= a.rep {
			ag.repDocs++
		}
	}
}

// Subtract retires one previously folded document's statistics, exactly
// inverting Add(doc, d): after fold-then-subtract the accumulator is
// deep-equal to its pre-fold state (and marshals to identical JSON). The
// DocPaths must be the same value folded for doc — the caller (the watch
// loop) keeps it alongside the document in its persistent state.
//
// Subtract validates before mutating, so on error the accumulator is
// unchanged. It fails when d references a path or contribution the
// accumulator no longer holds.
func (a *Accumulator) Subtract(doc int, d *DocPaths) error {
	if a.docs <= 0 {
		return fmt.Errorf("schema: subtract from empty accumulator")
	}
	for p := range d.Paths {
		ag := a.paths[p]
		if ag == nil || ag.docs <= 0 {
			return fmt.Errorf("schema: subtract of unknown path %q", p)
		}
		if d.PosCount[p] > 0 && ag.posDocs <= 0 {
			return fmt.Errorf("schema: subtract of path %q: no position contributions left", p)
		}
		if d.Mult[p] >= a.rep && ag.repDocs <= 0 {
			return fmt.Errorf("schema: subtract of path %q: no repetition contributions left", p)
		}
	}
	a.docs--
	a.table = nil
	for p := range d.Paths {
		ag := a.paths[p]
		ag.docs--
		if ag.docs == 0 {
			delete(a.paths, p)
			continue
		}
		if n := d.PosCount[p]; n > 0 {
			ag.posDocs--
			if ag.posDocs == 0 {
				// Reset to the zero value rather than subtracting down to
				// 0/1, so the "no sum yet" representation matches a fresh
				// aggregate exactly.
				ag.posSum = posRat{}
			} else {
				ag.posSum.subFrac(int64(d.PosSum[p]), int64(n))
			}
		}
		if d.Mult[p] >= a.rep {
			ag.repDocs--
		}
	}
	return nil
}

// Merge folds b into a. It is commutative and associative: any merge tree
// over a set of accumulators yields identical statistics, provided each
// document index was folded exactly once and both sides used the same
// repetition threshold.
func (a *Accumulator) Merge(b *Accumulator) error {
	if a.rep != b.rep {
		return fmt.Errorf("schema: merging accumulators with different repetition thresholds (%d vs %d)", a.rep, b.rep)
	}
	a.docs += b.docs
	a.table = nil
	for p, bg := range b.paths {
		ag := a.paths[p]
		if ag == nil {
			a.paths[p] = bg
			continue
		}
		ag.docs += bg.docs
		ag.posSum.addRat(&bg.posSum)
		ag.posDocs += bg.posDocs
		ag.repDocs += bg.repDocs
	}
	return nil
}

// avgPos returns the mean of the per-document average child positions, and
// whether any document contributed one. The quotient runs through big.Rat
// exactly as the pre-posRat implementation did, so the reported float64 is
// bit-identical.
func (g *pathAgg) avgPos() (float64, bool) {
	if g.posDocs == 0 {
		return 0, false
	}
	q := new(big.Rat).Quo(g.posSum.rat(), new(big.Rat).SetInt64(int64(g.posDocs)))
	f, _ := q.Float64()
	return f, true
}
