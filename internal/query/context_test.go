package query

import (
	"context"
	"testing"

	"webrev/internal/dom"
	"webrev/internal/pathindex"
)

// ctxIndex builds an index with enough occurrences that the stride-based
// cancellation check fires during a walk.
func ctxIndex(t *testing.T, docs int) *pathindex.Frozen {
	t.Helper()
	trees := make([]*dom.Node, docs)
	for i := range trees {
		trees[i] = dom.Elem("resume", nil,
			dom.Elem("contact", []string{"val", "x"}),
			dom.Elem("education", nil,
				dom.Elem("institution", []string{"val", "UC"}),
			),
		)
	}
	return pathindex.Build(trees).Freeze()
}

func TestEachContextUncancellable(t *testing.T) {
	ix := ctxIndex(t, 8)
	q, err := Compile("//institution")
	if err != nil {
		t.Fatal(err)
	}
	n, err := q.CountContext(context.Background(), ix)
	if err != nil || n != 8 {
		t.Fatalf("CountContext(Background) = %d, %v; want 8, nil", n, err)
	}
}

func TestEachContextAlreadyCancelled(t *testing.T) {
	ix := ctxIndex(t, 8)
	q, err := Compile("//institution")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	if err := q.EachContext(ctx, ix, func(string, pathindex.Ref) bool {
		calls++
		return true
	}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 0 {
		t.Fatalf("cancelled-before-start walk visited %d matches, want 0", calls)
	}
}

func TestEachContextCancelsMidWalk(t *testing.T) {
	// More than one stride of matches so the in-walk check fires.
	ix := ctxIndex(t, ctxCheckStride*3)
	q, err := Compile("//*")
	if err != nil {
		t.Fatal(err)
	}
	total, err := q.CountContext(context.Background(), ix)
	if err != nil {
		t.Fatal(err)
	}
	if total <= ctxCheckStride {
		t.Fatalf("test index too small: %d matches", total)
	}

	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err = q.EachContext(ctx, ix, func(string, pathindex.Ref) bool {
		calls++
		if calls == ctxCheckStride/2 {
			cancel() // fires mid-walk; the next stride check must stop it
		}
		return true
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls >= total {
		t.Fatalf("walk ran to completion (%d of %d) despite cancellation", calls, total)
	}
}

func TestCountContextPartialOnCancel(t *testing.T) {
	ix := ctxIndex(t, ctxCheckStride*2)
	q, err := Compile("//*")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n, err := q.CountContext(ctx, ix)
	if err != context.Canceled || n != 0 {
		t.Fatalf("CountContext(cancelled) = %d, %v; want 0, Canceled", n, err)
	}
}

// TestEachContextPollsWhileNothingMatches: the deadline check counts
// scanned postings, not matches, so a selective predicate that matches
// once and then scans a long run of non-matching postings still stops
// when its context fires.
func TestEachContextPollsWhileNothingMatches(t *testing.T) {
	root := dom.Elem("r", nil, dom.Elem("leaf", []string{"val", "needle"}))
	for i := 0; i < 4*ctxCheckStride; i++ {
		root.AppendChild(dom.Elem("leaf", []string{"val", "hay"}))
	}
	ix := pathindex.Build([]*dom.Node{root}).Freeze()
	q, err := Compile(`//leaf[@val~"needle"]`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	err = q.EachContext(ctx, ix, func(string, pathindex.Ref) bool {
		calls++
		cancel()
		return true
	})
	if err != context.Canceled {
		t.Fatalf("err = %v after scanning %d postings with the context cancelled; want context.Canceled", err, 1+4*ctxCheckStride)
	}
	if calls != 1 {
		t.Fatalf("callback ran %d times; want 1", calls)
	}
}
