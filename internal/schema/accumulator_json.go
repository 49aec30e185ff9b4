package schema

import (
	"encoding/json"
	"fmt"
	"math/big"
	"sort"
)

// The accumulator's JSON codec serializes the exact mergeable statistics —
// big.Rat position sums as numerator/denominator strings — so a snapshot
// of an accumulator restores losslessly. Paths marshal in sorted order,
// making the encoding deterministic for golden comparisons.

// accJSON is the wire form of an Accumulator.
type accJSON struct {
	Rep   int        `json:"rep"`
	Docs  int        `json:"docs"`
	Paths []pathJSON `json:"paths,omitempty"`
}

// pathJSON is the wire form of one path's aggregate.
type pathJSON struct {
	Path    string `json:"path"`
	Docs    int    `json:"docs"`
	PosNum  string `json:"pos_num,omitempty"`
	PosDen  string `json:"pos_den,omitempty"`
	PosDocs int    `json:"pos_docs,omitempty"`
	RepDocs int    `json:"rep_docs,omitempty"`
}

// MarshalJSON encodes the accumulator's full state deterministically
// (paths sorted).
func (a *Accumulator) MarshalJSON() ([]byte, error) {
	out := accJSON{Rep: a.rep, Docs: a.docs}
	keys := make([]string, 0, len(a.paths))
	for p := range a.paths {
		keys = append(keys, p)
	}
	sort.Strings(keys)
	for _, p := range keys {
		g := a.paths[p]
		pj := pathJSON{
			Path:    p,
			Docs:    g.docs,
			PosDocs: g.posDocs,
			RepDocs: g.repDocs,
		}
		if g.posSum.present() {
			r := g.posSum.rat()
			pj.PosNum = r.Num().String()
			pj.PosDen = r.Denom().String()
		}
		out.Paths = append(out.Paths, pj)
	}
	return json.Marshal(out)
}

// UnmarshalJSON restores an accumulator from its MarshalJSON encoding. The
// restored accumulator merges and mines identically to the original.
func (a *Accumulator) UnmarshalJSON(data []byte) error {
	var in accJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("schema: accumulator decode: %w", err)
	}
	if in.Rep <= 0 {
		return fmt.Errorf("schema: accumulator decode: invalid repetition threshold %d", in.Rep)
	}
	a.rep = in.Rep
	a.docs = in.Docs
	a.table = nil
	a.paths = make(map[string]*pathAgg, len(in.Paths))
	for _, pj := range in.Paths {
		g := &pathAgg{
			docs:    pj.Docs,
			posDocs: pj.PosDocs,
			repDocs: pj.RepDocs,
		}
		if pj.PosNum != "" {
			num, ok := new(big.Int).SetString(pj.PosNum, 10)
			if !ok {
				return fmt.Errorf("schema: accumulator decode: bad position numerator %q", pj.PosNum)
			}
			den, ok := new(big.Int).SetString(pj.PosDen, 10)
			if !ok || den.Sign() == 0 {
				return fmt.Errorf("schema: accumulator decode: bad position denominator %q", pj.PosDen)
			}
			g.posSum.setRat(new(big.Rat).SetFrac(num, den))
		}
		a.paths[pj.Path] = g
	}
	return nil
}
