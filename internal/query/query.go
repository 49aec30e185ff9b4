// Package query implements a small label-path query language over an XML
// repository — the retrieval capability the paper's introduction motivates
// ("querying Web based data in a way more efficient and effective than just
// keyword based retrieval"). Queries are evaluated against the path index
// of internal/pathindex, either the mutable build-time Index or the frozen
// read-only form webrevd serves from.
//
// Syntax (a practical XPath subset over label paths and val attributes):
//
//	/resume/education/institution          child steps
//	//institution                          descendant step (any depth)
//	/resume//date                          mixed
//	/resume/*/degree                       single-step wildcard
//	//*                                    every element
//	//institution[@val~"Davis"]            val contains
//	//degree[@val="B.S."]                  val equals
//	//degree[@val="\"B.S.\""]              escaped quotes inside values
//
// Predicates apply to the final step. Predicate values must be balanced
// double-quoted strings; `\"` and `\\` are the only escapes.
package query

import (
	"context"
	"fmt"
	"strings"

	"webrev/internal/pathindex"
	"webrev/internal/schema"
)

// Step is one location step of a compiled query.
type Step struct {
	Label      string // element name, or "*" for any
	Descendant bool   // true when reached via "//" (any depth ≥ 1)
}

// Predicate restricts the val attribute of matched nodes.
type Predicate struct {
	Contains bool // substring match rather than equality
	Value    string
}

// Query is a compiled query.
type Query struct {
	Steps []Step
	Pred  *Predicate
	src   string
}

// String returns the original query text.
func (q *Query) String() string { return q.src }

// Index is the read-side of a path index, the surface Evaluate, Each and
// Count need. Both *pathindex.Index and *pathindex.Frozen satisfy it, so
// queries run unchanged against a build-time index or a serving snapshot.
type Index interface {
	// Paths returns every indexed label path, sorted.
	Paths() []string
	// PathsEndingIn returns the indexed paths whose final label is label,
	// sorted.
	PathsEndingIn(label string) []string
	// Lookup returns all occurrences of the exact label path in indexing
	// order.
	Lookup(path string) []pathindex.Ref
}

// Compile parses a query expression.
func Compile(src string) (*Query, error) {
	q := &Query{src: src}
	s := strings.TrimSpace(src)
	if s == "" {
		return nil, fmt.Errorf("query: empty expression")
	}
	// Trailing predicate.
	if i := strings.IndexByte(s, '['); i >= 0 {
		if !strings.HasSuffix(s, "]") {
			return nil, fmt.Errorf("query: unterminated predicate in %q", src)
		}
		pred, err := parsePredicate(s[i+1 : len(s)-1])
		if err != nil {
			return nil, err
		}
		q.Pred = pred
		s = s[:i]
	}
	if !strings.HasPrefix(s, "/") {
		return nil, fmt.Errorf("query: expression must start with / or //")
	}
	for len(s) > 0 {
		desc := false
		switch {
		case strings.HasPrefix(s, "//"):
			desc = true
			s = s[2:]
		case strings.HasPrefix(s, "/"):
			s = s[1:]
		}
		if s == "" {
			return nil, fmt.Errorf("query: trailing slash in %q", src)
		}
		end := strings.IndexByte(s, '/')
		var label string
		if end < 0 {
			label, s = s, ""
		} else {
			label, s = s[:end], s[end:]
		}
		if label == "" {
			return nil, fmt.Errorf("query: empty step in %q", src)
		}
		q.Steps = append(q.Steps, Step{Label: label, Descendant: desc})
	}
	if len(q.Steps) == 0 {
		return nil, fmt.Errorf("query: no steps in %q", src)
	}
	return q, nil
}

func parsePredicate(s string) (*Predicate, error) {
	s = strings.TrimSpace(s)
	var contains bool
	var lit string
	switch {
	case strings.HasPrefix(s, "@val~"):
		contains, lit = true, s[len("@val~"):]
	case strings.HasPrefix(s, "@val="):
		contains, lit = false, s[len("@val="):]
	default:
		return nil, fmt.Errorf("query: unsupported predicate [%s]", s)
	}
	v, err := unquote(lit)
	if err != nil {
		return nil, fmt.Errorf("query: predicate [%s]: %w", s, err)
	}
	return &Predicate{Contains: contains, Value: v}, nil
}

// unquote parses a balanced double-quoted string literal, decoding the two
// supported escapes `\"` and `\\`. Unquoted, half-quoted or trailing text
// is an error — silently trimming quotes corrupted values that legitimately
// begin or end with one (e.g. @val="\"B.S.\"").
func unquote(s string) (string, error) {
	if len(s) < 2 || s[0] != '"' {
		return "", fmt.Errorf("value must be a double-quoted string")
	}
	var b strings.Builder
	for i := 1; i < len(s); {
		switch c := s[i]; c {
		case '"':
			if i != len(s)-1 {
				return "", fmt.Errorf("unexpected text after closing quote")
			}
			return b.String(), nil
		case '\\':
			i++
			if i >= len(s) || (s[i] != '"' && s[i] != '\\') {
				return "", fmt.Errorf(`unsupported escape (only \" and \\)`)
			}
			b.WriteByte(s[i])
			i++
		default:
			b.WriteByte(c)
			i++
		}
	}
	return "", fmt.Errorf("unterminated string value")
}

// matchPath reports whether a Sep-joined label path satisfies the steps.
// The first step is anchored at the path's root: /a/b matches only paths
// whose first label is a, while //b may match at any depth.
func (q *Query) matchPath(path string) bool {
	return matchSteps(q.Steps, path)
}

// matchSteps matches steps against the remainder of a Sep-joined label
// path ("" means no labels left). A child step consumes exactly the next
// label; a descendant step tries every suffix. Matching walks the string
// directly — no per-call label slice — so evaluation and counting stay
// allocation-free.
func matchSteps(steps []Step, path string) bool {
	if len(steps) == 0 {
		return path == ""
	}
	st := steps[0]
	if st.Descendant {
		// Try each label as the step's match (descendant-or-deeper: //
		// means any depth ≥ 1 below the current point; at the very start
		// //x also matches a root named x).
		for rest := path; rest != ""; {
			label, tail := nextLabel(rest)
			if stepMatches(st, label) && matchSteps(steps[1:], tail) {
				return true
			}
			rest = tail
		}
		return false
	}
	if path == "" {
		return false
	}
	label, tail := nextLabel(path)
	if !stepMatches(st, label) {
		return false
	}
	return matchSteps(steps[1:], tail)
}

// nextLabel splits the first label off a Sep-joined path.
func nextLabel(path string) (label, rest string) {
	if i := strings.Index(path, schema.Sep); i >= 0 {
		return path[:i], path[i+len(schema.Sep):]
	}
	return path, ""
}

func stepMatches(st Step, label string) bool {
	return st.Label == "*" || st.Label == label
}

// Each streams every match to fn in index order (candidate paths sorted,
// then occurrences in indexing order) without materializing a result
// slice. fn returning false stops the walk early — the limit/early-exit
// path of webrevd's query endpoint.
func (q *Query) Each(ix Index, fn func(path string, ref pathindex.Ref) bool) {
	q.scan(ix, nil, fn)
}

// ctxCheckStride is how many postings EachContext scans between
// cancellation checks — frequent enough that an aborted scan stops after
// at most that many more postings, matching or not, rare enough that the
// channel poll never shows up in profiles.
const ctxCheckStride = 256

// EachContext is Each with cooperative cancellation: the walk polls
// ctx.Done() every ctxCheckStride scanned postings, matching or not, and
// stops early when the context is cancelled or its deadline passes,
// returning the context's error. This is how webrevd's per-request
// deadlines abort slow scans — a selective predicate included, which
// streams few matches however much it scans — instead of pinning a worker
// until the scan finishes on its own. A context that can never be
// cancelled costs nothing extra (the check is skipped entirely).
func (q *Query) EachContext(ctx context.Context, ix Index, fn func(path string, ref pathindex.Ref) bool) error {
	done := ctx.Done()
	if done != nil {
		select {
		case <-done:
			return ctx.Err()
		default:
		}
	}
	if q.scan(ix, done, fn) {
		return ctx.Err()
	}
	return nil
}

// scan is Each's walk. With a non-nil done it polls done every
// ctxCheckStride scanned postings and reports whether it stopped because
// done was closed.
func (q *Query) scan(ix Index, done <-chan struct{}, fn func(path string, ref pathindex.Ref) bool) (cancelled bool) {
	// Candidate paths: when the final step is a concrete label, only paths
	// ending in it can match; otherwise scan all.
	last := q.Steps[len(q.Steps)-1]
	var candidates []string
	if last.Label != "*" {
		candidates = ix.PathsEndingIn(last.Label)
	} else {
		candidates = ix.Paths()
	}
	scanned := 0
	for _, p := range candidates {
		if !q.matchPath(p) {
			continue
		}
		refs := ix.Lookup(p)
		for i := range refs {
			if done != nil {
				if scanned++; scanned%ctxCheckStride == 0 {
					select {
					case <-done:
						return true
					default:
					}
				}
			}
			if q.Pred != nil && !q.Pred.matches(refs[i].Val) {
				continue
			}
			if !fn(p, refs[i]) {
				return false
			}
		}
	}
	return false
}

// CountContext is Count under cooperative cancellation: it returns the
// number of matches streamed before the context fired, and the context's
// error if it did.
func (q *Query) CountContext(ctx context.Context, ix Index) (int, error) {
	n := 0
	err := q.EachContext(ctx, ix, func(string, pathindex.Ref) bool {
		n++
		return true
	})
	return n, err
}

// Evaluate runs the query against an index and returns the matching node
// references in index order.
func (q *Query) Evaluate(ix Index) []pathindex.Ref {
	var out []pathindex.Ref
	q.Each(ix, func(_ string, ref pathindex.Ref) bool {
		out = append(out, ref)
		return true
	})
	return out
}

// matches reports whether a posting's val satisfies the predicate. It
// reads the val the index stored, not the tree.
func (p *Predicate) matches(val string) bool {
	if p.Contains {
		return strings.Contains(val, p.Value)
	}
	return val == p.Value
}

// Count returns the number of matches without materializing them: it walks
// the same candidate paths as Evaluate but only increments a counter, so
// counting a million-match query allocates nothing.
func (q *Query) Count(ix Index) int {
	n := 0
	q.Each(ix, func(string, pathindex.Ref) bool {
		n++
		return true
	})
	return n
}
