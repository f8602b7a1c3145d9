//go:build !race

package floatsort

import (
	"math/rand"
	"slices"
	"testing"
)

// TestAllocations pins Sort and its finish at zero allocations once the
// scratch pool is warm, on the stdlib path (short buffers) and on the
// counting passes; finish runs on a sorted buffer with neighbours swapped.
// (A non-race file: the race detector makes sync.Pool drop items at random.)
func TestAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{20, 100, 880} {
		src, buf := make([]float64, n), make([]float64, n)
		for i := range src {
			src[i] = rng.NormFloat64()
		}
		if got := testing.AllocsPerRun(100, func() {
			copy(buf, src)
			Sort(buf)
		}); got != 0 {
			t.Errorf("Sort, n=%d: %v allocations, want 0", n, got)
		}
		slices.Sort(src)
		for i := 1; i < n; i += 7 {
			src[i-1], src[i] = src[i], src[i-1]
		}
		if got := testing.AllocsPerRun(100, func() {
			copy(buf, src)
			finish(buf, 0)
		}); got != 0 {
			t.Errorf("finish, n=%d: %v allocations, want 0", n, got)
		}
	}
}
