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

// TestSubtractRestoresAccumulator is the retirement property the watch
// loop's incremental build rests on: folding a document and subtracting it
// again restores the accumulator to a state deep-equal (and JSON-identical)
// to one that never saw the document — for every choice of which document
// is retired.
func TestSubtractRestoresAccumulator(t *testing.T) {
	docs := convertedCorpus(t, 30, 5)
	for k := range docs {
		base := schema.NewAccumulator(0)
		mutated := schema.NewAccumulator(0)
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
// result to deep-equal a fresh accumulator.
func TestSubtractToEmpty(t *testing.T) {
	docs := convertedCorpus(t, 1, 17)
	acc := schema.NewAccumulator(0)
	acc.Add(0, docs[0])
	if err := acc.Subtract(0, docs[0]); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(acc, schema.NewAccumulator(0)) {
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
		acc := schema.NewAccumulator(0)
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
		fresh := schema.NewAccumulator(0)
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

// TestSubtractErrors pins the failure modes — an empty accumulator, a
// path never folded, a repetition never counted — and requires a failed
// subtract to leave the accumulator untouched.
func TestSubtractErrors(t *testing.T) {
	docs := convertedCorpus(t, 2, 31)
	acc := schema.NewAccumulator(0)
	if err := acc.Subtract(0, docs[0]); err == nil {
		t.Fatal("subtract from an empty accumulator succeeded")
	}
	acc.Add(0, docs[0])
	acc.Add(1, docs[1])

	// A path never folded.
	stranger := &schema.DocPaths{Paths: map[string]bool{"never-folded": true}}
	before := marshalAcc(t, acc)
	if err := acc.Subtract(0, stranger); err == nil {
		t.Fatal("subtract of an unknown path succeeded")
	}
	if after := marshalAcc(t, acc); !bytes.Equal(before, after) {
		t.Fatal("failed subtract mutated the accumulator")
	}

	// A repetition the accumulator never counted on a path it holds.
	rep := &schema.DocPaths{
		Paths: map[string]bool{"resume": true},
		Mult:  map[string]int{"resume": 9},
	}
	if err := acc.Subtract(0, rep); err == nil {
		t.Fatal("subtract of an uncounted repetition succeeded")
	}
	if after := marshalAcc(t, acc); !bytes.Equal(before, after) {
		t.Fatal("failed subtract mutated the accumulator")
	}
}

// TestSubtractAfterManyFolds retires one document from the middle of 600
// folded into a single accumulator and requires the result to deep-equal
// folding the other 599 under the same indices: no statistic the
// accumulator keeps is dropped or bounded as the corpus grows.
func TestSubtractAfterManyFolds(t *testing.T) {
	docs := convertedCorpus(t, 600, 37)
	if len(docs[299].Paths) < 2 {
		t.Fatalf("document 300's root has no children: %v", docs[299].Paths)
	}
	acc, want := schema.NewAccumulator(0), schema.NewAccumulator(0)
	for i, d := range docs {
		acc.Add(i, d)
		if i != 299 {
			want.Add(i, d)
		}
	}
	if err := acc.Subtract(299, docs[299]); err != nil {
		t.Fatalf("subtract document 300 of 600: %v", err)
	}
	if !reflect.DeepEqual(acc, want) {
		t.Fatal("fold 600 + subtract the 300th differs from folding the other 599")
	}
}

// TestSubtractJSONRoundTrip requires an accumulator restored from its JSON
// encoding to equal the original and still subtract exactly.
func TestSubtractJSONRoundTrip(t *testing.T) {
	docs := convertedCorpus(t, 8, 29)
	acc := schema.NewAccumulator(0)
	for i, d := range docs {
		acc.Add(i, d)
	}
	var restored schema.Accumulator
	if err := json.Unmarshal(marshalAcc(t, acc), &restored); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&restored, acc) {
		t.Fatal("restored accumulator differs")
	}
	if err := restored.Subtract(3, docs[3]); err != nil {
		t.Fatalf("subtract on restored accumulator: %v", err)
	}
}

// TestSubtractShardedRace mirrors the watch loop's concurrency shape: each
// worker owns one shard and folds/retires documents on it
// concurrently with the other workers. Run under -race this pins that
// Subtract shares no hidden state across accumulators; the merged result
// must still match a from-scratch accumulator over the surviving set.
func TestSubtractShardedRace(t *testing.T) {
	docs := convertedCorpus(t, 48, 21)
	const shards = 8
	accs := make([]*schema.Accumulator, shards)
	for i := range accs {
		accs[i] = schema.NewAccumulator(0)
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
	merged := schema.NewAccumulator(0)
	for _, a := range accs {
		if err := merged.Merge(a); err != nil {
			t.Fatal(err)
		}
	}
	fresh := schema.NewAccumulator(0)
	for i := range docs {
		if (i/shards)%2 != 0 {
			fresh.Add(i, docs[i])
		}
	}
	if got, want := marshalAcc(t, merged), marshalAcc(t, fresh); !bytes.Equal(got, want) {
		t.Fatalf("merged shards diverged from from-scratch accumulator\ngot:  %s\nwant: %s", got, want)
	}
}
