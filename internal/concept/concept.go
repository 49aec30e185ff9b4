// Package concept models topic-specific domain knowledge: concepts, concept
// instances, and concept constraints (paper §2.2).
//
// Concepts provide the element-name vocabulary of the XML documents produced
// by conversion. Each concept carries instances — text patterns and keywords
// as they might occur in topic-specific HTML documents — that the concept
// instance rule matches against tokens. Constraints (parent, sibling, depth)
// optionally restrict how concepts may nest and are exploited both during
// conversion and to prune the schema-discovery search space (§4.2).
package concept

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"

	"webrev/internal/memo"
)

// Role classifies a concept for the constraint classes of §4.2: title names
// may only appear as first-level nodes, content names only deeper.
type Role int

// Concept roles.
const (
	RoleAny     Role = iota // unclassified
	RoleTitle               // section title; depth == 1
	RoleContent             // content of a title; depth > 1
)

// Concept is one topic-specific concept: an XML element name plus the
// instances that identify it in text.
type Concept struct {
	Name      string   // element name, e.g. "institution"
	Instances []string // text patterns incl. the name itself, e.g. "University"
	Role      Role
}

// Set is an immutable collection of concepts with a compiled instance
// matcher. Build one with NewSet. Sets are safe for concurrent use: the
// only mutable state is an internal result memo, which is lock-protected.
type Set struct {
	concepts map[string]*Concept
	ordered  []*Concept // insertion order, for deterministic iteration
	// matcher: lowercase instance -> concept name; longest instances first.
	instances []instanceEntry
	// matches memoizes FindAll results per searched text. Entries are
	// shared: callers must treat returned slices as read-only (all of the
	// pipeline's call sites do).
	matches *memo.Cache[[]Match]
}

type instanceEntry struct {
	pattern string // lowercase
	concept string
	mask    byteMask // bytes occurring in pattern, for the pre-filter
}

// byteMask is a 256-bit set of byte values, the necessary-condition
// pre-filter of the matcher: a pattern can only occur in a text whose
// byte set is a superset of the pattern's.
type byteMask [4]uint64

func (m *byteMask) add(c byte) { m[c>>6] |= 1 << (c & 63) }

// subsetOf reports whether every byte in m also occurs in of.
func (m byteMask) subsetOf(of byteMask) bool {
	return m[0]&^of[0] == 0 && m[1]&^of[1] == 0 &&
		m[2]&^of[2] == 0 && m[3]&^of[3] == 0
}

func maskOf(s string) byteMask {
	var m byteMask
	for i := 0; i < len(s); i++ {
		m.add(s[i])
	}
	return m
}

// NewSet compiles the given concepts into a Set. The concept's own name is
// always implicitly an instance. Duplicate concept names are an error.
func NewSet(concepts ...Concept) (*Set, error) {
	s := &Set{concepts: make(map[string]*Concept, len(concepts))}
	for i := range concepts {
		c := concepts[i]
		if c.Name == "" {
			return nil, fmt.Errorf("concept: empty concept name at index %d", i)
		}
		if _, dup := s.concepts[c.Name]; dup {
			return nil, fmt.Errorf("concept: duplicate concept %q", c.Name)
		}
		cc := &Concept{Name: c.Name, Role: c.Role}
		seen := map[string]bool{}
		add := func(inst string) {
			inst = strings.TrimSpace(inst)
			if inst == "" {
				return
			}
			low := strings.ToLower(inst)
			if seen[low] {
				return
			}
			seen[low] = true
			cc.Instances = append(cc.Instances, inst)
			s.instances = append(s.instances, instanceEntry{pattern: low, concept: c.Name, mask: maskOf(low)})
		}
		add(c.Name)
		for _, inst := range c.Instances {
			add(inst)
		}
		s.concepts[c.Name] = cc
		s.ordered = append(s.ordered, cc)
	}
	// Longest-pattern-first so "assistant professor" wins over "professor".
	sort.SliceStable(s.instances, func(i, j int) bool {
		return len(s.instances[i].pattern) > len(s.instances[j].pattern)
	})
	s.matches = memo.New[[]Match](matchMemoSize)
	return s, nil
}

// matchMemoSize bounds the per-set FindAll memo. Tokens repeat heavily in
// template-derived corpora; see internal/memo.
const matchMemoSize = 4096

// MustSet is NewSet that panics on error, for tests and fixed vocabularies.
func MustSet(concepts ...Concept) *Set {
	s, err := NewSet(concepts...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of concepts.
func (s *Set) Len() int { return len(s.ordered) }

// InstanceCount returns the total number of compiled instances.
func (s *Set) InstanceCount() int { return len(s.instances) }

// Names returns the concept names in insertion order.
func (s *Set) Names() []string {
	out := make([]string, len(s.ordered))
	for i, c := range s.ordered {
		out[i] = c.Name
	}
	return out
}

// Get returns the named concept, or nil.
func (s *Set) Get(name string) *Concept { return s.concepts[name] }

// Has reports whether name is a concept in the set.
func (s *Set) Has(name string) bool { _, ok := s.concepts[name]; return ok }

// Match is one instance occurrence found in a token text.
type Match struct {
	Concept  string // concept name
	Instance string // the instance pattern that matched (lowercase)
	Start    int    // byte offset of the match in the searched text
	End      int    // byte offset just past the match
}

// FindAll locates every non-overlapping instance occurrence in text,
// case-insensitively and on word boundaries, preferring longer instances.
// Matches are returned in order of Start, with Start/End as byte offsets
// into text itself.
//
// Results for repeated texts are served from a per-set memo and shared:
// the returned slice must be treated as read-only.
func (s *Set) FindAll(text string) []Match {
	if ms, ok := s.matches.Get(text); ok {
		return ms
	}
	ms := s.findAll(text)
	// Clone the key: text is often a sub-slice of a whole parsed document,
	// and retaining it would pin the document's backing array.
	s.matches.Add(strings.Clone(text), ms)
	return ms
}

// claimedPool recycles the per-call claimed-byte scratch of findAll.
var claimedPool = sync.Pool{New: func() any { return new([]bool) }}

func (s *Set) findAll(text string) []Match {
	low, off := foldText(text)
	cp := claimedPool.Get().(*[]bool)
	if cap(*cp) < len(low) {
		*cp = make([]bool, len(low))
	}
	claimed := (*cp)[:len(low)]
	for i := range claimed {
		claimed[i] = false
	}
	textMask := maskOf(low)
	var out []Match
	for _, e := range s.instances {
		if len(e.pattern) > len(low) || !e.mask.subsetOf(textMask) {
			// The text cannot contain the pattern: it is shorter, or lacks
			// one of the pattern's bytes. This filter rejects almost every
			// instance for a typical short token at the cost of four ANDs.
			continue
		}
		from := 0
		for {
			i := strings.Index(low[from:], e.pattern)
			if i < 0 {
				break
			}
			start := from + i
			end := start + len(e.pattern)
			from = start + 1
			if !wordBoundary(low, start, end) {
				continue
			}
			if anyClaimed(claimed, start, end) {
				continue
			}
			for k := start; k < end; k++ {
				claimed[k] = true
			}
			if off != nil {
				start, end = off[start], off[end]
			}
			out = append(out, Match{Concept: e.concept, Instance: e.pattern, Start: start, End: end})
		}
	}
	claimedPool.Put(cp)
	if len(out) > 1 {
		sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	}
	return out
}

// foldText lowercases text and returns, for every byte of the lowered form
// plus one end sentinel, the corresponding byte offset in the original
// text. A nil offset slice means the mapping is the identity (the
// all-ASCII fast path). Lowering can shift byte offsets — multi-byte case
// pairs change encoded length, and invalid bytes turn into U+FFFD — so
// offsets found in the lowered string must be translated before slicing
// the original; indexing it directly is an out-of-bounds panic waiting for
// malformed input.
func foldText(text string) (string, []int) {
	ascii := true
	for i := 0; i < len(text); i++ {
		if text[i] >= utf8.RuneSelf {
			ascii = false
			break
		}
	}
	if ascii {
		return strings.ToLower(text), nil
	}
	var b strings.Builder
	b.Grow(len(text))
	off := make([]int, 0, len(text)+1)
	for i, r := range text {
		n := b.Len()
		b.WriteRune(unicode.ToLower(r))
		for ; n < b.Len(); n++ {
			off = append(off, i)
		}
	}
	off = append(off, len(text))
	return b.String(), off
}

func anyClaimed(claimed []bool, start, end int) bool {
	for k := start; k < end; k++ {
		if claimed[k] {
			return true
		}
	}
	return false
}

// wordBoundary reports whether [start,end) in s is delimited by non-word
// bytes (or string edges) on both sides.
func wordBoundary(s string, start, end int) bool {
	if start > 0 && isWordByte(s[start-1]) {
		return false
	}
	if end < len(s) && isWordByte(s[end]) {
		return false
	}
	return true
}

func isWordByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}
