package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// Snapshot is a frozen, serializable view of a Collector — the
// machine-readable metrics format that -metrics FILE writes and the source
// of the human-readable stage summary. Per-layer benchmark numbers come
// from `bash perfbench/run.sh --trace 1`.
type Snapshot struct {
	Meta     *Meta                 `json:"meta,omitempty"`
	Stages   map[string]StageStats `json:"stages"`
	Counters map[string]int64      `json:"counters"`
	Gauges   map[string]int64      `json:"gauges,omitempty"`
}

// Snapshot freezes the collector's current state.
func (c *Collector) Snapshot() *Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := &Snapshot{
		Stages:   make(map[string]StageStats, len(c.stages)),
		Counters: make(map[string]int64, len(c.counters)),
	}
	for name, st := range c.stages {
		s.Stages[name] = *st
	}
	for name, v := range c.counters {
		s.Counters[name] = v
	}
	if len(c.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(c.gauges))
		for name, v := range c.gauges {
			s.Gauges[name] = v
		}
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON. Maps serialize with
// sorted keys (encoding/json guarantees this), so output is deterministic
// for fixed inputs.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteFile writes the snapshot JSON to path.
func (s *Snapshot) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadSnapshot parses a snapshot previously written with WriteJSON.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("obs: bad snapshot: %w", err)
	}
	return &s, nil
}

// Normalize returns a copy with every timing zeroed, keeping counts and
// counters. Golden tests compare normalized snapshots: the event structure
// is deterministic, wall-clock durations and build metadata are not, so
// Meta is dropped too.
func (s *Snapshot) Normalize() *Snapshot {
	out := &Snapshot{
		Stages:   make(map[string]StageStats, len(s.Stages)),
		Counters: make(map[string]int64, len(s.Counters)),
	}
	for name, st := range s.Stages {
		out.Stages[name] = StageStats{Count: st.Count}
	}
	for name, v := range s.Counters {
		out.Counters[name] = v
	}
	if len(s.Gauges) > 0 {
		out.Gauges = make(map[string]int64, len(s.Gauges))
		for name, v := range s.Gauges {
			out.Gauges[name] = v
		}
	}
	return out
}

// Summary renders the snapshot as a human-readable stage table followed by
// the counters, the form the experiment harness prints.
func (s *Snapshot) Summary() string {
	var b strings.Builder
	if len(s.Stages) > 0 {
		fmt.Fprintf(&b, "%-18s %8s %12s %12s %12s %12s\n",
			"stage", "count", "total", "avg", "min", "max")
		for _, name := range sortedKeys(s.Stages) {
			st := s.Stages[name]
			fmt.Fprintf(&b, "%-18s %8d %12s %12s %12s %12s\n",
				name, st.Count, fmtDur(st.Total), fmtDur(st.Avg()),
				fmtDur(st.Min), fmtDur(st.Max))
		}
	}
	if len(s.Counters) > 0 {
		b.WriteString("counters:\n")
		for _, name := range sortedKeys(s.Counters) {
			fmt.Fprintf(&b, "  %-24s %12d\n", name, s.Counters[name])
		}
	}
	if len(s.Gauges) > 0 {
		b.WriteString("gauges:\n")
		for _, name := range sortedKeys(s.Gauges) {
			fmt.Fprintf(&b, "  %-24s %12d\n", name, s.Gauges[name])
		}
	}
	return b.String()
}

// fmtDur rounds a duration to a readable precision for the summary table.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.String()
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
