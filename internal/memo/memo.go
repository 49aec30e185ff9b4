// Package memo provides a small concurrency-safe LRU-ish cache keyed by
// string, shared by the pipeline's per-token hot paths (the frozen Bayes
// classifier and the concept-instance matcher). Template-generated corpora
// repeat the same token texts across thousands of documents, so memoizing a
// pure per-token computation turns the dominant inner loop into a hash
// lookup.
//
// The cache is sharded to keep lock contention negligible when the build
// paths run one converter goroutine per core, and eviction is CLOCK
// (second-chance): cheaper than a linked-list LRU, with the same "recently
// used entries survive" behaviour the workload needs. Values must be
// immutable once inserted — every shard hands the same value to all
// readers.
package memo

import (
	"sync"
)

// shardCount must be a power of two.
const shardCount = 16

// Cache is a fixed-capacity concurrency-safe string-keyed cache with CLOCK
// eviction. The zero value is unusable; construct with New. A nil *Cache is
// valid and acts as a disabled cache (every Get misses, Add is a no-op), so
// callers can make memoization optional without branching.
type Cache[V any] struct {
	shards [shardCount]shard[V]
}

type shard[V any] struct {
	mu     sync.Mutex
	m      map[string]int // key -> slot index
	slot   []entry[V]     // fixed-size ring of entries
	hand   int            // CLOCK hand
	hits   uint64
	misses uint64
}

type entry[V any] struct {
	key  string
	val  V
	used bool // second-chance bit, set on Get
	live bool
}

// New returns a cache holding at most capacity entries (rounded up so every
// shard holds at least one). A capacity <= 0 returns nil — the disabled
// cache.
func New[V any](capacity int) *Cache[V] {
	if capacity <= 0 {
		return nil
	}
	per := (capacity + shardCount - 1) / shardCount
	c := &Cache[V]{}
	for i := range c.shards {
		c.shards[i].m = make(map[string]int, per)
		c.shards[i].slot = make([]entry[V], per)
	}
	return c
}

// fnv1a hashes key for shard selection.
func fnv1a(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}

// Get returns the cached value for key. The boolean reports a hit. Get on a
// nil cache always misses.
func (c *Cache[V]) Get(key string) (V, bool) {
	if c == nil {
		var zero V
		return zero, false
	}
	s := &c.shards[fnv1a(key)&(shardCount-1)]
	s.mu.Lock()
	i, ok := s.m[key]
	if !ok {
		s.misses++
		s.mu.Unlock()
		var zero V
		return zero, false
	}
	s.hits++
	s.slot[i].used = true
	v := s.slot[i].val
	s.mu.Unlock()
	return v, true
}

// Add inserts key -> val, evicting the first entry the CLOCK hand finds
// whose second-chance bit is clear. Re-adding an existing key overwrites
// its value. Add on a nil cache is a no-op.
func (c *Cache[V]) Add(key string, val V) {
	if c == nil {
		return
	}
	s := &c.shards[fnv1a(key)&(shardCount-1)]
	s.mu.Lock()
	if i, ok := s.m[key]; ok {
		s.slot[i].val = val
		s.slot[i].used = true
		s.mu.Unlock()
		return
	}
	// CLOCK sweep: clear used bits until a victim is found. Bounded by two
	// full revolutions (after one revolution every bit is clear).
	for {
		e := &s.slot[s.hand]
		if e.live && e.used {
			e.used = false
			s.hand = (s.hand + 1) % len(s.slot)
			continue
		}
		if e.live {
			delete(s.m, e.key)
		}
		*e = entry[V]{key: key, val: val, live: true}
		s.m[key] = s.hand
		s.hand = (s.hand + 1) % len(s.slot)
		s.mu.Unlock()
		return
	}
}

// Stats is a point-in-time aggregate of a cache's effectiveness — the
// numbers webrevd's /api/stats endpoint and the serve counters report.
type Stats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"`
}

// Stats aggregates hit/miss counts and the live entry count across all
// shards. A nil cache reports zeros. Counts are maintained under the
// per-shard lock the hot path already takes, so tracking costs nothing
// extra in synchronization.
func (c *Cache[V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	var st Stats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Entries += len(s.m)
		s.mu.Unlock()
	}
	return st
}

// Len returns the number of live entries across all shards.
func (c *Cache[V]) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}
