package cpd

import (
	"math"
	"math/rand"
	"testing"
)

// The permutation test's scan decides a candidate split from two running
// sums wherever that cannot differ from deciding it with energy, and with
// energy elsewhere (detect.go, reaches). Three things keep that honest: the
// answers are the exact scan's (oracle_test.go, exactReaches), the running
// statistic is within the stated bound of energy at every candidate, and the
// band where energy decides is both reached and rare.

// scanGens are the shapes of kernel_test.go and the ones that strain sums
// rather than orderings.
var scanGens = append(seriesGens[:len(seriesGens):len(seriesGens)], []struct {
	name string
	gen  func(rng *rand.Rand, n int) []float64
}{
	// Event-like counts: few distinct values, so permutations repeat the
	// observed split's two multisets and tie with it exactly.
	{"events", eventShaped},
	// Sixty decades in one series: the largest value sets every sum, the
	// smallest are below its last bit.
	{"magnitudes", func(rng *rand.Rand, n int) []float64 {
		return fill(n, func(int) float64 {
			return math.Copysign(math.Pow(10, -300+600*rng.Float64()), rng.Float64()-0.5)
		})
	}},
	// Steps of the subnormal grid, where a product or a quotient rounds to
	// the step and a relative bound underflows to zero.
	{"subnormals", func(rng *rand.Rand, n int) []float64 {
		return fill(n, func(int) float64 {
			return float64(rng.Intn(7)-3) * math.SmallestNonzeroFloat64
		})
	}},
	// A shared offset, which energy does not subtract out and the running
	// sums never see.
	{"offset", func(rng *rand.Rand, n int) []float64 {
		base := math.Pow(10, 3+9*rng.Float64())
		return fill(n, func(int) float64 { return base + rng.NormFloat64() })
	}},
	// Sums that overflow or are infinite from the start: no bound holds.
	{"extremes", func(rng *rand.Rand, n int) []float64 {
		set := [...]float64{math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64, 1e300, -1e300}
		rate := rng.Float64() / 4
		return fill(n, func(int) float64 {
			if rng.Float64() < rate {
				return set[rng.Intn(len(set))]
			}
			return float64(rng.Intn(5)) - 2
		})
	}},
}...)

// eventShaped draws a quiet count series — seven 0s to two 1s to one 2 —
// busier from its midpoint on in one window of three.
func eventShaped(rng *rand.Rand, n int) []float64 {
	burst := rng.Intn(3) == 0
	return fill(n, func(i int) float64 {
		c := [10]float64{7: 1, 8: 1, 9: 2}[rng.Intn(10)]
		if burst && i >= n/2 {
			c += float64(rng.Intn(3))
		}
		return c
	})
}

// eachPermutation runs the permutation test's set-up on series as
// significant does — best split, prepare, then p.Permutations shuffles of the
// ranks from p.Seed's stream, never stopping early — and hands visit each
// one with the observed statistic. A series without a best split is skipped.
func eachPermutation(series []float64, p Params, visit func(k *kernel, perm []int32, observed float64)) {
	p = p.withDefaults()
	n := len(series)
	k := acquire(n, p.Seed)
	defer kernels.Put(k)
	idx, observed := k.bestSplit(series, p.MinSegment)
	if idx < 0 {
		return
	}
	k.prepare(n, p.MinSegment)
	perm := k.perm[:n]
	copy(perm, k.rank[:n])
	for i := 0; i < p.Permutations; i++ {
		k.rng.Shuffle(n, func(a, b int) {
			perm[a], perm[b] = perm[b], perm[a]
		})
		visit(k, perm, observed)
	}
}

// eachGenerated runs body, in parallel per shape (the scratch the scan adds
// is the pooled kernel's, and `make race` watches), over perGen series of
// each shape of scanGens — one in four at the shortest lengths a segment
// can have — with MinSegment, the permutation count and the seed drawn too.
func eachGenerated(t *testing.T, seedBase int64, perGen int, body func(t *testing.T, rng *rand.Rand, series []float64, p Params)) {
	if testing.Short() {
		perGen /= 5
	}
	for gi, g := range scanGens {
		g, seed := g, seedBase+int64(gi)
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			for trial := 0; trial < perGen; trial++ {
				p := Params{
					MinSegment:   1 + rng.Intn(6),
					Permutations: []int{9, 29}[rng.Intn(2)],
					Seed:         rng.Int63(),
				}
				n := 2*p.MinSegment + rng.Intn(60)
				if trial%4 == 0 {
					n = 2*p.MinSegment + rng.Intn(2)
				}
				body(t, rng, g.gen(rng, n), p)
			}
		})
	}
}

// The new reaches answers as the exact scan does, on every permutation the
// test draws, against the observed statistic and against thresholds that
// tie with a candidate of the permutation to the bit or miss it by one: the
// two edges of the band.
func TestReachesMatchesExactScan(t *testing.T) {
	eachGenerated(t, 300, 1500, func(t *testing.T, rng *rand.Rand, series []float64, p Params) {
		n := len(series)
		eachPermutation(series, p, func(k *kernel, perm []int32, observed float64) {
			nx := p.MinSegment + rng.Intn(n-2*p.MinSegment+1)
			k.start(perm, nx)
			tie := k.energy(n, nx)
			for _, threshold := range []float64{
				observed, tie, math.Nextafter(tie, math.Inf(1)), math.Nextafter(tie, math.Inf(-1)),
			} {
				got, want := k.reaches(perm, p.MinSegment, threshold), k.exactReaches(perm, p.MinSegment, threshold)
				if got != want {
					t.Fatalf("series %v in rank order %v, minSeg %d: reaches(%x) = %v, the exact scan %v (delta %g)",
						series, perm, p.MinSegment, math.Float64bits(threshold), got, want, k.delta)
				}
			}
		})
	})
}

// At every candidate of every permutation the running statistic is within
// delta/2 of energy — the claim reaches rests on and DESIGN.md §7.4.1
// derives — and the shapes without an infinite or overflowing value have a
// finite delta, so the claim is not empty.
func TestRunningStatisticWithinBound(t *testing.T) {
	eachGenerated(t, 400, 1500, func(t *testing.T, _ *rand.Rand, series []float64, p Params) {
		n := len(series)
		finite := true
		for _, v := range series {
			finite = finite && math.Abs(v) < 1e300
		}
		eachPermutation(series, p, func(k *kernel, perm []int32, _ float64) {
			if finite && math.IsInf(k.delta, 1) {
				t.Fatalf("series %v: no bound", series)
			}
			s := sums{0, k.total}
			for i, r := range perm[:n-p.MinSegment] {
				s = k.cross(s, i, r)
				nx := i + 1
				if nx < p.MinSegment {
					continue
				}
				got := k.statistic(s, n, nx)
				k.start(perm, nx)
				want := k.energy(n, nx)
				if !math.IsInf(k.delta, 1) && !(math.Abs(got-want) <= k.delta/2) {
					t.Fatalf("series %v in rank order %v, split %d: running statistic %v, energy %v: apart by %g, delta/2 is %g",
						series, perm, nx, got, want, math.Abs(got-want), k.delta/2)
				}
			}
		})
	})
}

// energy settles some candidate of tie-heavy windows — the scoutbench world
// never gets there, so without this the fallback is dead code to CI — and
// none of cloudsim-shaped ones, where a delta too wide to be of use would
// send them all.
func TestBandIsExercised(t *testing.T) {
	t.Parallel()
	settled := func(gen func(rng *rand.Rand, n int) []float64) (count int) {
		rng := rand.New(rand.NewSource(40))
		for w := 0; w < 300; w++ {
			eachPermutation(gen(rng, 40), Params{Permutations: 29}, func(k *kernel, perm []int32, observed float64) {
				before := k.settled
				k.reaches(perm, 5, observed)
				count += k.settled - before
			})
		}
		return count
	}
	if got := settled(eventShaped); got == 0 {
		t.Error("energy settled no candidate of 300 event-like windows: the band is not exercised")
	}
	if got := settled(func(rng *rand.Rand, n int) []float64 { return telemetryShaped(rng, n, 12) }); got != 0 {
		t.Errorf("energy settled %d candidates of 300 cloudsim-shaped windows, want 0", got)
	}
}
