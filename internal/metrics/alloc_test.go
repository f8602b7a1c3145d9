//go:build !race

package metrics

import (
	"math/rand"
	"testing"
)

// TestSummarizeInPlaceDoesNotAllocate guards the featurization hot path at
// the merged-buffer sizes of the held-out corpus. It lives in a non-race
// file because the race detector makes sync.Pool drop items at random, and
// the ordering kernel's scratch is pooled.
func TestSummarizeInPlaceDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{20, 440, 880} {
		src, buf := make([]float64, n), make([]float64, n)
		fillGaussian(src, rng)
		if got := testing.AllocsPerRun(100, func() {
			copy(buf, src)
			benchSink = SummarizeInPlace(buf)
		}); got != 0 {
			t.Errorf("n=%d: %v allocs per SummarizeInPlace, want 0", n, got)
		}
	}
}
