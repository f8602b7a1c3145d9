package parallel

import (
	"fmt"
	"testing"

	"scouts/internal/allocgate"
)

// TestForAllocations pins what a fan-out costs: nothing on the sequential
// path, and at two workers the loop's shared state and the one goroutine's
// closure — the caller is the other worker.
func TestForAllocations(t *testing.T) {
	hits := make([]int, 64)
	inc := func(i int) { hits[i]++ } // made once: a closure For takes escapes
	for _, c := range []struct{ workers, want int }{{1, 0}, {2, 2}} {
		allocgate.Check(t, fmt.Sprintf("parallel.For/workers=%d", c.workers), c.want, func() { For(c.workers, len(hits), inc) })
	}
}
