// Package parallel is the deterministic worker-pool substrate of the
// repository's parallel execution layer. Every hot path that fans out —
// forest training, per-incident featurization, evaluation prediction —
// funnels through For, which guarantees the same semantics regardless of
// worker count: work items are addressed by index, so callers write results
// into index-addressed slots and any order-sensitive post-processing (rng
// draws, accumulator merges) runs sequentially over those slots afterwards.
//
// The contract that keeps parallel output bit-identical to sequential
// output is: (1) each work item must be a pure function of its index plus
// read-only shared state, and (2) anything order-dependent — floating-point
// accumulation, random sampling — happens after For returns, in index
// order. See DESIGN.md "Parallel execution layer".
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count knob: n when positive, otherwise
// runtime.GOMAXPROCS(0). This is the default applied to every Workers
// option in the repository.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// For runs fn(i) for every i in [0, n) using up to `workers` goroutines
// (resolved through Workers), the calling goroutine one of them. Items are
// handed out dynamically via an atomic counter, so uneven item costs
// balance across workers. With workers <= 1 — or n == 1 — it degrades to a
// plain loop on the calling goroutine, which keeps single-core runs
// allocation-free and makes the sequential path literally the same code
// path callers can diff against. Otherwise a call allocates the loop's
// shared state and one closure per goroutine it starts: 2 at two workers.
//
// fn must not panic across items it does not own and must treat shared
// state as read-only; results should be written to index-addressed slots.
func For(workers, n int, fn func(i int)) {
	run(workers, n, fn, nil)
}

// ForWorker is For handing fn, with each index, the worker that runs it: w
// is in [0, min(Workers(workers), n)) and no two calls with the same w
// overlap, so a caller can keep per-worker scratch in a slice of that
// length and reuse it from item to item. Which worker takes which item
// varies from run to run: an item's result must not depend on w.
func ForWorker(workers, n int, fn func(w, i int)) {
	run(workers, n, nil, fn)
}

// loop is the state one For or ForWorker call shares with its goroutines.
type loop struct {
	next atomic.Int64
	wg   sync.WaitGroup
	n    int
	fn   func(i int)
	fnw  func(w, i int)
}

func run(workers, n int, fn func(i int), fnw func(w, i int)) {
	if n <= 0 {
		return
	}
	workers = min(Workers(workers), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if fn != nil {
				fn(i)
			} else {
				fnw(0, i)
			}
		}
		return
	}
	l := &loop{n: n, fn: fn, fnw: fnw}
	l.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer l.wg.Done()
			l.work(w)
		}()
	}
	defer l.wg.Wait() // even when an item panics on the caller
	l.work(0)
}

// work runs items as worker w until none is left.
func (l *loop) work(w int) {
	for {
		i := int(l.next.Add(1)) - 1
		if i >= l.n {
			return
		}
		if l.fn != nil {
			l.fn(i)
		} else {
			l.fnw(w, i)
		}
	}
}

// Map runs fn over [0, n) with the given worker count and collects the
// results in index order — the common "parallel compute, sequential
// consume" shape of the evaluation drivers.
func Map[T any](workers, n int, fn func(i int) T) []T {
	out := make([]T, n)
	For(workers, n, func(i int) {
		out[i] = fn(i)
	})
	return out
}
