package floatsort

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"scouts/internal/allocgate"
)

// TestAllocations pins Sort and its finish at zero allocations once the
// scratch pool is warm, on the stdlib path (short buffers) and on the
// counting passes; finish runs on a sorted buffer with neighbours swapped.
func TestAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{20, 100, 880} {
		src, buf := make([]float64, n), make([]float64, n)
		for i := range src {
			src[i] = rng.NormFloat64()
		}
		allocgate.Check(t, fmt.Sprintf("floatsort.Sort/n=%d", n), 0, func() {
			copy(buf, src)
			Sort(buf)
		})
		slices.Sort(src)
		for i := 1; i < n; i += 7 {
			src[i-1], src[i] = src[i], src[i-1]
		}
		allocgate.Check(t, fmt.Sprintf("floatsort.finish/n=%d", n), 0, func() {
			copy(buf, src)
			finish(buf, 0)
		})
	}
}
