package cpd

import (
	"fmt"
	"math/rand"
	"testing"

	"scouts/internal/allocgate"
)

// In steady state — the scratch pool warm, the generator's template derived
// — a Detect allocates only the result slice of a series with a change
// point, and countChanges and HasChange nothing: whatever the length of the
// series or the number of permutations.
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
				want int
			}{
				{"Detect/stationary", func() { Detect(flat, p) }, 0},
				{"Detect/shifted", func() { Detect(shifted, p) }, 1},
				{"countChanges/shifted", func() { countChanges(shifted, p) }, 0},
				{"HasChange/shifted", func() { HasChange(shifted, p) }, 0},
			} {
				allocgate.Check(t, fmt.Sprintf("cpd.%s/n=%d/perms=%d", c.name, n, perms), c.want, c.run)
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
		allocgate.Check(t, "cpd.kernel."+c.name, 0, c.run)
	}
}

// TestBestSplitExactCallsAllocationFree pins what bestSplit costs beyond
// its running sums: energy at about one candidate a window where the exact
// scan called it at all 31 of a 40-point window, and no allocation.
// Telemetry-shaped windows have one candidate near the top; event-like
// ones sometimes tie a second with it to the bit.
func TestBestSplitExactCallsAllocationFree(t *testing.T) {
	const n, minSeg, windows = 40, 5, 2000
	for _, c := range []struct {
		name    string
		gen     func(rng *rand.Rand, n int) []float64
		ceiling float64
	}{
		{"telemetry", func(rng *rand.Rand, n int) []float64 { return telemetryShaped(rng, n, 3) }, 1.05},
		{"events", eventShaped, 1.1},
	} {
		rng := rand.New(rand.NewSource(19))
		k := acquire(n, 0)
		before := k.settled
		for w := 0; w < windows; w++ {
			k.bestSplit(c.gen(rng, n), minSeg)
		}
		if mean := float64(k.settled-before) / windows; mean > c.ceiling {
			t.Errorf("%s: %.3f exact energy calls a bestSplit over %d windows, ceiling %.2f", c.name, mean, windows, c.ceiling)
		} else {
			t.Logf("%s: %.3f exact energy calls a bestSplit over %d windows", c.name, mean, windows)
		}
		series := c.gen(rng, n)
		allocgate.Check(t, "cpd.kernel.bestSplit/"+c.name, 0, func() { k.bestSplit(series, minSeg) })
		kernels.Put(k)
	}
}
