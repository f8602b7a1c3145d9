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

// TestKernelAllocations gives every method of the scan kernel a row of its
// own: once acquire has sized the scratch, none of them allocates, so a
// formatting call, a boxed argument or a fresh buffer in any one of them
// fails its row even where Detect's own count would not say which.
func TestKernelAllocations(t *testing.T) {
	const n, minSeg = 80, 5
	rng := rand.New(rand.NewSource(17))
	series := step(n/2, n/2, 0, 3, 1, rng)
	k := acquire(n, 3)
	idx, observed := k.bestSplit(series, minSeg)
	if idx < 0 {
		t.Fatal("the shifted series has no best split")
	}
	k.prepare(n, minSeg)
	shuffled := append([]int32(nil), k.rank[:n]...)
	rng.Shuffle(n, func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"bestSplit", func() { k.bestSplit(series, minSeg) }},
		{"index", func() { k.index(series) }},
		{"start", func() { k.start(k.rank[:n], minSeg) }},
		{"energy", func() { k.energy(n, minSeg) }}, // start left minSeg values before the split
		{"split", func() { split(k.sorted[:n], k.side[:n], k.xs[:n], k.ys[:n]) }},
		{"prepare", func() { k.prepare(n, minSeg) }},
		{"cross", func() { k.cross(sums{0, k.total}, 0, shuffled[0]) }},
		{"statistic", func() { k.statistic(sums{1, 2}, n, n/2) }},
		{"reaches", func() { k.reaches(shuffled, minSeg, observed) }},
		{"source.Uint64", func() { k.src.Uint64() }},
	} {
		if got := testing.AllocsPerRun(20, c.run); got != 0 {
			t.Errorf("kernel.%s: %.0f allocations, want 0", c.name, got)
		}
	}
}
