package schema_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"webrev/internal/schema"
)

func marshalAcc(t testing.TB, a *schema.Accumulator) []byte {
	t.Helper()
	b, err := json.Marshal(a)
	if err != nil {
		t.Fatalf("marshal accumulator: %v", err)
	}
	return b
}

// TestSubtractRestoresAccumulator is the retirement property the delta
// build rests on: folding a document and subtracting it again restores the
// accumulator to a state deep-equal (and JSON-identical) to one that never
// saw the document — for every choice of which document is retired.
func TestSubtractRestoresAccumulator(t *testing.T) {
	docs := convertedCorpus(t, 30, 5)
	for k := range docs {
		base := schema.NewDeltaAccumulator(0)
		mutated := schema.NewDeltaAccumulator(0)
		for i, d := range docs {
			if i == k {
				continue
			}
			base.Add(i, d)
			mutated.Add(i, d)
		}
		mutated.Add(k, docs[k])
		if err := mutated.Subtract(k, docs[k]); err != nil {
			t.Fatalf("subtract doc %d: %v", k, err)
		}
		if !reflect.DeepEqual(mutated, base) {
			t.Fatalf("doc %d: fold+subtract did not restore the accumulator", k)
		}
		if got, want := marshalAcc(t, mutated), marshalAcc(t, base); !bytes.Equal(got, want) {
			t.Fatalf("doc %d: JSON differs after fold+subtract\ngot:  %s\nwant: %s", k, got, want)
		}
	}
}

// TestSubtractToEmpty retires the only folded document and requires the
// result to deep-equal a fresh delta accumulator.
func TestSubtractToEmpty(t *testing.T) {
	docs := convertedCorpus(t, 1, 17)
	acc := schema.NewDeltaAccumulator(0)
	acc.Add(0, docs[0])
	if err := acc.Subtract(0, docs[0]); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(acc, schema.NewDeltaAccumulator(0)) {
		t.Fatal("subtracting the only document did not restore the empty accumulator")
	}
	if err := acc.Subtract(0, docs[0]); err == nil {
		t.Fatal("subtract from empty accumulator succeeded")
	}
}

// TestSubtractRandomInterleaving drives a random fold/subtract sequence and
// requires the surviving state to match a from-scratch accumulator over the
// live document set: identical JSON and an identical mined schema.
func TestSubtractRandomInterleaving(t *testing.T) {
	docs := convertedCorpus(t, 40, 13)
	m := &schema.Miner{SupThreshold: 0.3, RatioThreshold: 0.1}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		acc := schema.NewDeltaAccumulator(0)
		live := make(map[int]bool)
		for op := 0; op < 120; op++ {
			i := rng.Intn(len(docs))
			if live[i] {
				if err := acc.Subtract(i, docs[i]); err != nil {
					t.Fatalf("trial %d: subtract doc %d: %v", trial, i, err)
				}
				delete(live, i)
			} else {
				acc.Add(i, docs[i])
				live[i] = true
			}
		}
		fresh := schema.NewDeltaAccumulator(0)
		for i := range docs {
			if live[i] {
				fresh.Add(i, docs[i])
			}
		}
		if got, want := marshalAcc(t, acc), marshalAcc(t, fresh); !bytes.Equal(got, want) {
			t.Fatalf("trial %d (%d live docs): interleaved JSON diverged from from-scratch\ngot:  %s\nwant: %s",
				trial, len(live), got, want)
		}
		if got, want := m.DiscoverStats(acc).String(), m.DiscoverStats(fresh).String(); got != want {
			t.Fatalf("trial %d: mined schema diverged\ngot:\n%s\nwant:\n%s", trial, got, want)
		}
	}
}

// TestSubtractErrors pins the failure modes: unknown paths, and retiring a
// document whose sequence sample a non-delta accumulator compacted away. A
// failed subtract must leave the accumulator untouched.
func TestSubtractErrors(t *testing.T) {
	seqDoc := func(i int) *schema.DocPaths {
		return &schema.DocPaths{
			Paths:     map[string]bool{"r": true, "r/e": true},
			Mult:      map[string]int{"r": 1, "r/e": 4},
			PosSum:    map[string]float64{"r": 0, "r/e": float64(i % 5)},
			PosCount:  map[string]int{"r": 1, "r/e": 1},
			ChildSeqs: map[string][][]string{"r": {{"e", "e"}}},
		}
	}

	// Compaction in a non-delta accumulator drops old samples; subtracting
	// such a document must fail cleanly.
	acc := schema.NewAccumulator(0)
	for i := 0; i < 600; i++ {
		acc.Add(i, seqDoc(i))
	}
	// Doc 300's sample sits past the kept corpus-order prefix at the time
	// compaction fires, so it is gone from the non-delta accumulator.
	before := marshalAcc(t, acc)
	if err := acc.Subtract(300, seqDoc(300)); err == nil {
		t.Fatal("subtract of a compacted-away sample succeeded")
	}
	if after := marshalAcc(t, acc); !bytes.Equal(before, after) {
		t.Fatal("failed subtract mutated the accumulator")
	}

	// A delta accumulator never compacts, so the same retirement succeeds.
	del := schema.NewDeltaAccumulator(0)
	for i := 0; i < 600; i++ {
		del.Add(i, seqDoc(i))
	}
	if err := del.Subtract(300, seqDoc(300)); err != nil {
		t.Fatalf("delta subtract failed: %v", err)
	}

	// Unknown path.
	stranger := &schema.DocPaths{Paths: map[string]bool{"never-folded": true}}
	before = marshalAcc(t, del)
	if err := del.Subtract(0, stranger); err == nil {
		t.Fatal("subtract of an unknown path succeeded")
	}
	if after := marshalAcc(t, del); !bytes.Equal(before, after) {
		t.Fatal("failed subtract mutated the accumulator")
	}
}

// TestSubtractMergeDeltaMismatch rejects merging delta and non-delta
// accumulators: their sequence samples are not comparable (one compacts).
func TestSubtractMergeDeltaMismatch(t *testing.T) {
	a, b := schema.NewDeltaAccumulator(0), schema.NewAccumulator(0)
	if err := a.Merge(b); err == nil {
		t.Fatal("merge of delta and non-delta accumulators succeeded")
	}
}

// TestSubtractDeltaJSONRoundTrip requires the delta flag to survive the
// wire format: a restored delta shard must still subtract exactly.
func TestSubtractDeltaJSONRoundTrip(t *testing.T) {
	docs := convertedCorpus(t, 8, 29)
	acc := schema.NewDeltaAccumulator(0)
	for i, d := range docs {
		acc.Add(i, d)
	}
	var restored schema.Accumulator
	if err := json.Unmarshal(marshalAcc(t, acc), &restored); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&restored, acc) { // the delta flag included
		t.Fatal("restored delta accumulator differs")
	}
	if err := restored.Subtract(3, docs[3]); err != nil {
		t.Fatalf("subtract on restored accumulator: %v", err)
	}
}

// TestSubtractShardedRace mirrors the watch loop's concurrency shape: each
// worker owns one delta shard and folds/retires documents on it
// concurrently with the other workers. Run under -race this pins that
// Subtract shares no hidden state across accumulators; the merged result
// must still match a from-scratch accumulator over the surviving set.
func TestSubtractShardedRace(t *testing.T) {
	docs := convertedCorpus(t, 48, 21)
	const shards = 8
	accs := make([]*schema.Accumulator, shards)
	for i := range accs {
		accs[i] = schema.NewDeltaAccumulator(0)
	}
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := s; i < len(docs); i += shards {
				accs[s].Add(i, docs[i])
			}
			// Retire every other document the shard folded.
			for i := s; i < len(docs); i += 2 * shards {
				if err := accs[s].Subtract(i, docs[i]); err != nil {
					t.Errorf("shard %d: subtract doc %d: %v", s, i, err)
				}
			}
		}(s)
	}
	wg.Wait()
	merged := schema.NewDeltaAccumulator(0)
	for _, a := range accs {
		if err := merged.Merge(a); err != nil {
			t.Fatal(err)
		}
	}
	fresh := schema.NewDeltaAccumulator(0)
	for i := range docs {
		if (i/shards)%2 != 0 {
			fresh.Add(i, docs[i])
		}
	}
	if got, want := marshalAcc(t, merged), marshalAcc(t, fresh); !bytes.Equal(got, want) {
		t.Fatalf("merged shards diverged from from-scratch accumulator\ngot:  %s\nwant: %s", got, want)
	}
}
