package metrics

import (
	"fmt"
	"math/rand"
	"testing"

	"scouts/internal/allocgate"
)

// TestSummarizeInPlaceDoesNotAllocate guards the featurization hot path at
// the merged-buffer sizes of the held-out corpus: SummarizeInPlace, the
// deviation it takes around the mean it holds, and the vector it fills.
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
			allocgate.Check(t, fmt.Sprintf("metrics.%s/n=%d", c.name, n), 0, c.run)
		}
	}
}
