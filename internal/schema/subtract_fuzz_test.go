package schema

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"webrev/internal/htmlparse"
)

// FuzzFoldSubtract drives an arbitrary fold/subtract interleaving over a
// small document pool and requires the surviving accumulator to match a
// from-scratch accumulator over the live set: identical JSON and an
// identical mined schema. Each op byte toggles one document in or out.
func FuzzFoldSubtract(f *testing.F) {
	f.Add("<resume><contact/><education><degree/></education></resume>", []byte{0, 1, 2, 1, 0})
	f.Add("<a><b><c/></b><b/></a>", []byte{3, 3, 3, 0, 2, 1})
	f.Add("<ul><li>x<li>y</ul>", []byte{})
	f.Add("\x00<h1>\xff</h1>", []byte{0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, src string, ops []byte) {
		if len(src) > 4096 {
			src = src[:4096]
		}
		if len(ops) > 64 {
			ops = ops[:64]
		}
		// Carve the input into a pool of documents, as FuzzMinePaths does.
		var docs []*DocPaths
		for i := 0; i < 4; i++ {
			docs = append(docs, Extract(htmlparse.Parse(src[len(src)*i/4:])))
		}
		acc := NewAccumulator(0)
		live := make(map[int]bool)
		for _, op := range ops {
			i := int(op) % len(docs)
			if live[i] {
				if err := acc.Subtract(i, docs[i]); err != nil {
					t.Fatalf("subtract doc %d: %v", i, err)
				}
				delete(live, i)
			} else {
				acc.Add(i, docs[i])
				live[i] = true
			}
		}
		fresh := NewAccumulator(0)
		for i := range docs {
			if live[i] {
				fresh.Add(i, docs[i])
			}
		}
		aj, err := json.Marshal(acc)
		if err != nil {
			t.Fatal(err)
		}
		fj, err := json.Marshal(fresh)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(aj, fj) {
			t.Fatalf("interleaved accumulator diverged from from-scratch\ngot:  %s\nwant: %s", aj, fj)
		}
		m := &Miner{SupThreshold: 0.5, RatioThreshold: 0.1}
		if got, want := m.DiscoverStats(acc), m.DiscoverStats(fresh); !reflect.DeepEqual(got, want) {
			t.Fatalf("mined schema diverged:\n%s\nvs\n%s", got, want)
		}
	})
}
