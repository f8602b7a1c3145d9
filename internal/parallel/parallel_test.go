package parallel

import (
	"sync/atomic"
	"testing"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8, 100} {
		n := 137
		hits := make([]atomic.Int32, n)
		For(workers, n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
}

// TestForWorkerIndices: every index runs once, on a worker below the
// resolved worker count, and no worker runs two items at once.
func TestForWorkerIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		n := 137
		hits := make([]atomic.Int32, n)
		busy := make([]atomic.Bool, min(workers, n))
		ForWorker(workers, n, func(w, i int) {
			if !busy[w].CompareAndSwap(false, true) {
				t.Errorf("workers=%d: worker %d runs two items at once", workers, w)
			}
			hits[i].Add(1)
			busy[w].Store(false)
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
}

func TestForEmpty(t *testing.T) {
	called := false
	For(4, 0, func(int) { called = true })
	For(4, -3, func(int) { called = true })
	if called {
		t.Fatal("fn called for empty range")
	}
}

func TestMapPreservesOrder(t *testing.T) {
	for _, workers := range []int{1, 4} {
		out := Map(workers, 50, func(i int) int { return i * i })
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestWorkersDefault(t *testing.T) {
	if Workers(3) != 3 {
		t.Fatal("explicit worker count not respected")
	}
	if Workers(0) < 1 || Workers(-1) < 1 {
		t.Fatal("default workers must be >= 1")
	}
}
