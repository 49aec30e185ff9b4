package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

// counter is a pull function over 0, 1, 2, ... up to n (n < 0: endless),
// counting its calls.
func counter(n int, pulled *atomic.Int64) func(context.Context) (int, bool, error) {
	return func(context.Context) (int, bool, error) {
		i := int(pulled.Load())
		if n >= 0 && i == n {
			return 0, false, nil
		}
		pulled.Add(1)
		return i, true, nil
	}
}

// TestOrderedPoolCommitOrder: under random work delays, results commit in
// pull order, each exactly once.
func TestOrderedPoolCommitOrder(t *testing.T) {
	const n = 200
	delays := make([]time.Duration, n)
	rng := rand.New(rand.NewSource(1))
	for i := range delays {
		delays[i] = time.Duration(rng.Intn(200)) * time.Microsecond
	}
	var pulled atomic.Int64
	var got []int
	err := runOrdered(context.Background(), 4, 8, counter(n, &pulled), func(i int) int {
		time.Sleep(delays[i])
		return i
	}, func(i int) error {
		got = append(got, i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("committed %d items, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("commit %d carried item %d: commits out of pull order", i, v)
		}
	}
}

// TestOrderedPoolInFlightBound: items between pull and commit never exceed
// the limit, and a straggler at the head of the run makes the pool fill the
// limit rather than stop early.
func TestOrderedPoolInFlightBound(t *testing.T) {
	const limit = 5
	var pulled, inFlight, peak atomic.Int64
	pull := counter(100, &pulled)
	err := runOrdered(context.Background(), 3, limit, func(ctx context.Context) (int, bool, error) {
		i, ok, err := pull(ctx)
		if ok {
			cur := inFlight.Add(1)
			for old := peak.Load(); cur > old && !peak.CompareAndSwap(old, cur); old = peak.Load() {
			}
		}
		return i, ok, err
	}, func(i int) int {
		if i == 0 {
			time.Sleep(20 * time.Millisecond)
		}
		return i
	}, func(int) error {
		inFlight.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p != limit {
		t.Fatalf("peak in flight = %d, want the limit %d", p, limit)
	}
}

// TestOrderedPoolCancel: once the context ends the pool stops pulling, and
// it returns only after every pulled item has committed.
func TestOrderedPoolCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var pulled, committed atomic.Int64
		var pulledAtCancel int64
		err := runOrdered(ctx, workers, 8, counter(-1, &pulled), func(i int) int {
			time.Sleep(50 * time.Microsecond)
			return i
		}, func(i int) error {
			committed.Add(1)
			if i == 10 {
				cancel()
				pulledAtCancel = pulled.Load()
			}
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if c, p := committed.Load(), pulled.Load(); c != p {
			t.Fatalf("workers=%d: returned with %d of %d pulled items committed", workers, c, p)
		}
		if p := pulled.Load(); p > pulledAtCancel+1 {
			t.Fatalf("workers=%d: pulled %d items after cancellation (%d before)", workers, p-pulledAtCancel, pulledAtCancel)
		}
	}
}

// TestOrderedPoolCommitError: a failing commit stops the pool: nothing
// more commits and the error comes back.
func TestOrderedPoolCommitError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var pulled atomic.Int64
		commits := 0
		err := runOrdered(context.Background(), workers, 8, counter(-1, &pulled), func(i int) int { return i },
			func(i int) error {
				commits++
				if i == 5 {
					return boom
				}
				return nil
			})
		if !errors.Is(err, boom) || commits != 6 {
			t.Fatalf("workers=%d: err = %v after %d commits, want boom after 6", workers, err, commits)
		}
	}
}

// goid returns the calling goroutine's id.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	id, _, _ := bytes.Cut(bytes.TrimPrefix(buf, []byte("goroutine ")), []byte(" "))
	return string(id)
}

// TestOrderedPoolInline: with one worker every pull, work and commit runs
// on the caller, and item i is pulled only after item i-1 committed.
func TestOrderedPoolInline(t *testing.T) {
	caller := goid()
	var events []string
	var pulled atomic.Int64
	pull := counter(4, &pulled)
	note := func(ev string, i int) {
		if id := goid(); id != caller {
			t.Errorf("%s %d ran on goroutine %s, not the caller %s", ev, i, id, caller)
		}
		events = append(events, ev+strconv.Itoa(i))
	}
	err := runOrdered(context.Background(), 1, 8, func(ctx context.Context) (int, bool, error) {
		i, ok, err := pull(ctx)
		if ok {
			note("p", i)
		}
		return i, ok, err
	}, func(i int) int {
		note("w", i)
		return i
	}, func(i int) error {
		note("c", i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(events), "[p0 w0 c0 p1 w1 c1 p2 w2 c2 p3 w3 c3]"; got != want {
		t.Fatalf("events %s, want %s", got, want)
	}
}
