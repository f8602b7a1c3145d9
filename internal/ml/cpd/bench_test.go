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
// tick = 40; 29 permutations are core.Train's, 99 the default.
func BenchmarkDetect(b *testing.B) {
	const pool = 4096
	for _, n := range []int{12, 40, 120, 240} {
		rng := rand.New(rand.NewSource(int64(n)))
		windows := make([][]float64, pool)
		for w := range windows {
			windows[w] = telemetryShaped(rng, n, 12)
		}
		for _, perms := range []int{29, 99} {
			p := Params{Permutations: perms}
			b.Run(fmt.Sprintf("n=%d/perms=%d", n, perms), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchSink += len(Detect(windows[i%pool], p))
				}
			})
		}
	}
}
