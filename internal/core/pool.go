package core

import (
	"context"
	"runtime"
	"sync"
)

// runOrdered is the ordered pool every build phase runs through. It pulls
// items in order, works them on up to workers goroutines, and commits each
// result on the calling goroutine in pull order, so per-item work runs in
// parallel while everything that must be ordered — folds, appends,
// checkpoints — stays serial and deterministic.
//
// At most limit items sit between pull and commit: a slot is reserved
// before each pull, so a blocking pull (a channel receive) backpressures
// its producer instead of buffering past the bound. pull reports the end
// of input with ok false; it receives a context that ends when ctx does or
// a commit fails. Once ctx ends no further items are pulled, items already
// pulled are still worked and committed, and runOrdered returns ctx.Err().
// A pull or commit error stops pulling the same way; the items in flight
// are drained without committing and the error is returned.
//
// With one worker the pool runs inline: each item is pulled, worked and
// committed on the calling goroutine before the next is pulled.
func runOrdered[I, O any](ctx context.Context, workers, limit int,
	pull func(context.Context) (I, bool, error), work func(I) O, commit func(O) error) error {
	if workers <= 1 {
		for ctx.Err() == nil {
			it, ok, err := pull(ctx)
			if err != nil || !ok {
				if err == nil {
					err = ctx.Err()
				}
				return err
			}
			if err := commit(work(it)); err != nil {
				return err
			}
		}
		return ctx.Err()
	}

	type job struct {
		it  I
		out chan O
	}
	pctx, stop := context.WithCancel(ctx)
	defer stop()
	sem := make(chan struct{}, limit)
	// Both queues are buffered to the in-flight bound, which the semaphore
	// enforces, so neither send ever blocks the feeder: a burst of arrivals
	// is accepted at once and converted while the producer idles.
	jobs := make(chan job, limit)
	order := make(chan chan O, limit)
	var pullErr error
	go func() {
		defer close(order)
		defer close(jobs)
		for {
			select {
			case sem <- struct{}{}:
			case <-pctx.Done():
				return
			}
			if pctx.Err() != nil {
				return
			}
			it, ok, err := pull(pctx)
			if err != nil || !ok {
				pullErr = err
				return
			}
			out := make(chan O, 1)
			order <- out
			jobs <- job{it, out}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				j.out <- work(j.it)
				// Yield between items: a worker draining a burst never
				// blocks, and on few cores an unbroken slice starves the
				// producer. The yield bounds its dispatch latency by one
				// item, not one burst.
				runtime.Gosched()
			}
		}()
	}
	var err error
	for out := range order {
		o := <-out
		if err == nil {
			if err = commit(o); err != nil {
				stop()
			}
		}
		<-sem
	}
	wg.Wait()
	if err == nil {
		err = pullErr
	}
	if err == nil {
		err = ctx.Err()
	}
	return err
}
