package cpd

import (
	"fmt"
	"math/rand"
	"testing"
)

var benchSink int

// BenchmarkDetect times one Detect at core.Train's seed over a fresh window
// every iteration — cloudsim-shaped, one in six with a shift or a scale at
// its midpoint: a replayed series trains the branch predictor and
// under-reads a branchy kernel about threefold (DESIGN.md §7.3). The window
// sizes bracket what the Scout pulls, 2 x the look-back at the 6-minute
// tick = 40; 29 permutations are core.Train's, 99 the default. No candidate
// of those windows is close enough to the observed statistic for the exact
// kernel to be asked; ties/ times the event-like windows where permutations
// tie with it and the exact kernel settles them.
func BenchmarkDetect(b *testing.B) {
	for _, n := range []int{12, 40, 120, 240} {
		benchDetect(b, "", n, func(rng *rand.Rand, n int) []float64 { return telemetryShaped(rng, n, 12) })
	}
	benchDetect(b, "ties/", 40, eventShaped)
}

func benchDetect(b *testing.B, prefix string, n int, gen func(rng *rand.Rand, n int) []float64) {
	const pool = 4096
	rng := rand.New(rand.NewSource(int64(n)))
	windows := make([][]float64, pool)
	for w := range windows {
		windows[w] = gen(rng, n)
	}
	for _, perms := range []int{29, 99} {
		p := Params{Permutations: perms}
		b.Run(fmt.Sprintf("%sn=%d/perms=%d", prefix, n, perms), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink += len(Detect(windows[i%pool], p))
			}
		})
	}
}
