package schema

import (
	"bytes"
	"encoding/json"
	"testing"

	"webrev/internal/dom"
)

// jsonDoc builds a small document tree with repeated children so the
// accumulator records positions and multiplicities.
func jsonDoc(extra string) *dom.Node {
	root := dom.NewElement("resume")
	for i := 0; i < 3; i++ {
		e := dom.NewElement("education")
		e.AppendChild(dom.NewElement("degree"))
		e.AppendChild(dom.NewElement("date"))
		root.AppendChild(e)
	}
	if extra != "" {
		root.AppendChild(dom.NewElement(extra))
	}
	return root
}

// TestAccumulatorJSONRoundTrip checks that marshal → unmarshal → marshal is
// byte-stable and preserves the accumulator's headline statistics.
func TestAccumulatorJSONRoundTrip(t *testing.T) {
	acc := NewAccumulator(0)
	acc.Add(0, Extract(jsonDoc("skills")))
	acc.Add(1, Extract(jsonDoc("")))
	acc.Add(2, Extract(jsonDoc("awards")))

	first, err := json.Marshal(acc)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	restored := &Accumulator{}
	if err := json.Unmarshal(first, restored); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if restored.Docs() != acc.Docs() || restored.RepThreshold() != acc.RepThreshold() {
		t.Fatalf("restored docs/rep = %d/%d, want %d/%d",
			restored.Docs(), restored.RepThreshold(), acc.Docs(), acc.RepThreshold())
	}
	second, err := json.Marshal(restored)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("encoding not stable across a round trip:\n%s\nvs\n%s", first, second)
	}
}

// TestAccumulatorJSONMinesIdentically checks the restored accumulator
// merges and mines exactly like the live one — the property checkpoint
// resume depends on.
func TestAccumulatorJSONMinesIdentically(t *testing.T) {
	live := NewAccumulator(0)
	live.Add(0, Extract(jsonDoc("skills")))
	live.Add(1, Extract(jsonDoc("")))

	data, err := json.Marshal(live)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	restored := &Accumulator{}
	if err := json.Unmarshal(data, restored); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}

	// Continue both with the same later shard, then mine.
	later := func() *Accumulator {
		b := NewAccumulator(0)
		b.Add(2, Extract(jsonDoc("awards")))
		return b
	}
	if err := live.Merge(later()); err != nil {
		t.Fatalf("merge live: %v", err)
	}
	if err := restored.Merge(later()); err != nil {
		t.Fatalf("merge restored: %v", err)
	}
	m := &Miner{SupThreshold: 0.3, RatioThreshold: 0.1}
	a, b := m.DiscoverStats(live), m.DiscoverStats(restored)
	if a.String() != b.String() {
		t.Fatalf("restored accumulator mines differently:\n%s\nvs\n%s", a, b)
	}
}

// TestAccumulatorJSONRejectsBadInput checks the decoder validates its
// input instead of building a corrupt accumulator.
func TestAccumulatorJSONRejectsBadInput(t *testing.T) {
	bad := []string{
		`{"rep":0,"docs":1}`,
		`{"rep":3,"docs":1,"paths":[{"path":"/a","docs":1,"pos_num":"x","pos_den":"2"}]}`,
		`{"rep":3,"docs":1,"paths":[{"path":"/a","docs":1,"pos_num":"1","pos_den":"0"}]}`,
	}
	for _, in := range bad {
		if err := json.Unmarshal([]byte(in), &Accumulator{}); err == nil {
			t.Fatalf("decoder accepted %s", in)
		}
	}
}
