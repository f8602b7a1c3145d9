//go:build !race

package cpd

import (
	"math/rand"
	"testing"
)

// In steady state — the scratch pool warm, the generator's template derived
// — a Detect allocates only the result slice of a series with a change
// point, and HasChange nothing: whatever the length of the series or the
// number of permutations. (A non-race file: the race detector makes
// sync.Pool drop items at random.)
func TestDetectAllocationsConstant(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, perms := range []int{29, 99} {
		for _, n := range []int{40, 80, 200} {
			flat := step(n, 0, 0, 0, 1, rng)
			shifted := step(n/2, n/2, 0, 8, 1, rng)
			p := Params{Permutations: perms, MaxPoints: 1, Seed: 3}
			for _, c := range []struct {
				name string
				run  func()
				want float64
			}{
				{"Detect(stationary)", func() { Detect(flat, p) }, 0},
				{"Detect(shifted)", func() { Detect(shifted, p) }, 1},
				{"HasChange(shifted)", func() { HasChange(shifted, p) }, 0},
			} {
				if got := testing.AllocsPerRun(20, c.run); got != c.want {
					t.Errorf("%s, n=%d, %d permutations: %.0f allocations, want %.0f", c.name, n, perms, got, c.want)
				}
			}
		}
	}
}
