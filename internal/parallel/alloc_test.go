//go:build !race

package parallel

import "testing"

// TestForAllocations pins what a fan-out costs: nothing on the sequential
// path, and at two workers the loop's shared state and the one goroutine's
// closure — the caller is the other worker. It was 4 while each worker was
// a goroutine of its own and the counter and the wait group escaped one by
// one. (A non-race file: the race detector's own bookkeeping allocates.)
func TestForAllocations(t *testing.T) {
	hits := make([]int, 64)
	inc := func(i int) { hits[i]++ } // made once: a closure For takes escapes
	for _, c := range []struct {
		workers int
		want    float64
	}{{1, 0}, {2, 2}} {
		got := testing.AllocsPerRun(100, func() { For(c.workers, len(hits), inc) })
		if got != c.want {
			t.Errorf("For at %d workers: %v allocations, want %v", c.workers, got, c.want)
		}
	}
}
