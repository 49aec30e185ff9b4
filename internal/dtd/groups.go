package dtd

import (
	"strings"

	"webrev/internal/schema"
)

// This file implements the repetitive-group extension the paper closes
// §3.3 with: content models of the form (e1, e2)+ discovered from the
// child-label sequences of a schema node, following the XTRACT observation
// the paper cites ("The discovery of such patterns has been discussed in
// detail in [17]. We recently included similar computations into our
// approach.").

// DetectTuple searches the child-label sequences for a repeating tuple: a
// label list t with 2 ≤ len(t) ≤ maxTupleLen such that at least minFrac of
// the non-empty sequences are t repeated one or more times, and at least
// one sequence repeats it twice or more (otherwise a plain sequence model
// suffices). It returns the tuple and true on success.
func DetectTuple(seqs [][]string, minFrac float64) ([]string, bool) {
	const maxTupleLen = 4
	if len(seqs) == 0 {
		return nil, false
	}
	nonEmpty := 0
	for _, s := range seqs {
		if len(s) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		return nil, false
	}
	// Candidate tuples come from sequence prefixes.
	tried := map[string]bool{}
	for _, s := range seqs {
		for l := 2; l <= maxTupleLen && l <= len(s); l++ {
			t := s[:l]
			key := strings.Join(t, "\x00")
			if tried[key] {
				continue
			}
			tried[key] = true
			if tupleCovers(t, seqs, minFrac) {
				return append([]string(nil), t...), true
			}
		}
	}
	return nil, false
}

// tupleCovers reports whether tuple t explains at least minFrac of the
// non-empty sequences, with at least one repetition of count ≥ 2.
func tupleCovers(t []string, seqs [][]string, minFrac float64) bool {
	covered, nonEmpty, sawRepeat := 0, 0, false
	for _, s := range seqs {
		if len(s) == 0 {
			continue
		}
		nonEmpty++
		k, ok := tupleRepeats(t, s)
		if ok {
			covered++
			if k >= 2 {
				sawRepeat = true
			}
		}
	}
	if nonEmpty == 0 || !sawRepeat {
		return false
	}
	return float64(covered)/float64(nonEmpty) >= minFrac
}

// tupleRepeats reports whether s is exactly t repeated k ≥ 1 times, and
// returns k.
func tupleRepeats(t, s []string) (int, bool) {
	if len(t) == 0 || len(s)%len(t) != 0 {
		return 0, false
	}
	k := len(s) / len(t)
	for i, label := range s {
		if label != t[i%len(t)] {
			return 0, false
		}
	}
	return k, true
}

// groupMinFrac is the fraction of observed child sequences a tuple must
// explain to become a group.
const groupMinFrac = 0.8

// applyGroupPatterns rewrites element content models where a repeating
// tuple covers at least groupMinFrac of the observed child sequences: the
// children matching the tuple are replaced by a single group particle
// (t1, t2, ...)+.
func applyGroupPatterns(d *DTD, root *schema.Node) {
	var walk func(n *schema.Node)
	walk = func(n *schema.Node) {
		for _, c := range n.Children {
			walk(c)
		}
		tuple, ok := DetectTuple(n.Seqs, groupMinFrac)
		if !ok {
			return
		}
		el := d.index[n.Label]
		if el == nil || hasGroup(el) {
			return
		}
		// The tuple must cover exactly the element's declared children —
		// otherwise a partial rewrite would drop declared content.
		declared := map[string]bool{}
		for _, c := range el.Children {
			if c.Group != nil {
				return
			}
			declared[c.Name] = true
		}
		if len(declared) != len(tuple) {
			return
		}
		for _, label := range tuple {
			if !declared[label] {
				return
			}
		}
		group := Child{Repeat: Plus}
		for _, label := range tuple {
			group.Group = append(group.Group, Child{Name: label})
		}
		el.Children = []Child{group}
	}
	walk(root)
}

func hasGroup(el *Element) bool {
	for _, c := range el.Children {
		if c.Group != nil {
			return true
		}
	}
	return false
}
