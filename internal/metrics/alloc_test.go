//go:build !race

package metrics

import (
	"math/rand"
	"testing"
)

// TestSummarizeInPlaceDoesNotAllocate guards the featurization hot path at
// the merged-buffer sizes of the held-out corpus: SummarizeInPlace, the
// deviation it takes around the mean it holds, and the vector it fills. It
// lives in a non-race file because the race detector makes sync.Pool drop
// items at random, and the ordering kernel's scratch is pooled.
func TestSummarizeInPlaceDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vec := make([]float64, len(SummaryNames))
	for _, n := range []int{20, 440, 880} {
		src, buf := make([]float64, n), make([]float64, n)
		fillGaussian(src, rng)
		for _, c := range []struct {
			name string
			run  func()
		}{
			{"SummarizeInPlace", func() {
				copy(buf, src)
				benchSink = SummarizeInPlace(buf)
			}},
			{"stdDevAround", func() { benchSink.Std = stdDevAround(src, 0.5) }},
			{"VectorInto", func() { benchSink.VectorInto(vec) }},
		} {
			if got := testing.AllocsPerRun(100, c.run); got != 0 {
				t.Errorf("n=%d: %v allocs per %s, want 0", n, got, c.name)
			}
		}
	}
}
