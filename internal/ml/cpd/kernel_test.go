package cpd

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The kernel's contract is bit-identity with the oracle (oracle_test.go):
// the same statistic at every candidate split, hence the same best split,
// the same permutation-test decisions and the same change points.

// sameStat reports whether two statistics are the same bits. A series with
// a NaN scores NaN at every candidate; which NaN is not part of the
// contract, because no comparison tells them apart.
func sameStat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// checkScan demands the oracle's (index, statistic) from bestSplit and, for
// every candidate split of series, the oracle's statistic from the kernel's
// scan. Backwards, the scan takes the series in reverse, as one permutation
// the test would draw: the ranks of equal values ascend with their
// position, so only backwards does a run's y come before its x.
func checkScan(t *testing.T, series []float64, minSeg int, backwards bool) {
	t.Helper()
	n := len(series)
	k := acquire(n, 0)
	defer kernels.Put(k)
	gotIdx, gotStat := k.bestSplit(series, minSeg)
	wantIdx, wantStat := oldBestSplit(series, minSeg)
	if gotIdx != wantIdx || math.Float64bits(gotStat) != math.Float64bits(wantStat) {
		t.Fatalf("bestSplit(%v, %d) = (%d, %x), oracle (%d, %x)", series, minSeg,
			gotIdx, math.Float64bits(gotStat), wantIdx, math.Float64bits(wantStat))
	}
	if n < 2*minSeg {
		return
	}
	// A NaN sorts first, and bestSplit leaves a segment with one unscanned:
	// the oracle must then score NaN at every candidate.
	scanned := k.sorted[0] == k.sorted[0]
	rank := k.rank[:n]
	if backwards {
		series = slices.Clone(series)
		slices.Reverse(series)
		slices.Reverse(rank)
	}
	if scanned {
		k.start(rank, minSeg)
	}
	for i := minSeg; i <= n-minSeg; i++ {
		got, want := math.NaN(), energyStat(series[:i], series[i:])
		if scanned {
			got = k.energy(n, i)
		}
		if !sameStat(got, want) {
			t.Fatalf("series %v split %d: energy %x, oracle %x", series, i,
				math.Float64bits(got), math.Float64bits(want))
		}
		k.side[rank[i]] |= before
	}
}

// checkDetect demands the oracle's change points and HasChange verdict.
func checkDetect(t *testing.T, series []float64, p Params) {
	t.Helper()
	got, want := Detect(series, p), oldDetect(series, p)
	same := len(got) == len(want)
	for i := 0; same && i < len(got); i++ {
		same = got[i] == want[i]
	}
	if !same {
		t.Fatalf("Detect(%v, %+v) = %v, oracle %v", series, p, got, want)
	}
	if got, want := HasChange(series, p), oldHasChange(series, p); got != want {
		t.Fatalf("HasChange(%v, %+v) = %v, oracle %v", series, p, got, want)
	}
}

// seriesGens are the shapes the differential test draws from.
var seriesGens = []struct {
	name string
	gen  func(rng *rand.Rand, n int) []float64
}{
	{"gaussian", func(rng *rand.Rand, n int) []float64 {
		return fill(n, func(int) float64 { return rng.NormFloat64() })
	}},
	{"ties", func(rng *rand.Rand, n int) []float64 {
		set := [4]float64{0, 1, 1.5, -3}
		return fill(n, func(int) float64 { return set[rng.Intn(4)] })
	}},
	{"constant", func(rng *rand.Rand, n int) []float64 {
		c := rng.NormFloat64() * 100
		return fill(n, func(int) float64 { return c })
	}},
	{"telemetry", func(rng *rand.Rand, n int) []float64 { return telemetryShaped(rng, n, 3) }},
	// Values no clean feed produces but faults.Chaos corruption and
	// overflowing counters do.
	{"special", func(rng *rand.Rand, n int) []float64 {
		special := [...]float64{
			math.NaN(), math.Float64frombits(0x7ff8000000000001), math.Inf(1), math.Inf(-1),
			0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
			math.Float64frombits(0x000fffffffffffff), math.MaxFloat64, -math.MaxFloat64,
		}
		rate := rng.Float64()
		return fill(n, func(int) float64 {
			if rng.Float64() < rate {
				return special[rng.Intn(len(special))]
			}
			return float64(rng.Intn(5)) - 2
		})
	}},
	{"zeros", func(rng *rand.Rand, n int) []float64 {
		set := [4]float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -1}
		return fill(n, func(int) float64 { return set[rng.Intn(4)] })
	}},
	// Ties whose sums round: the values of "ties" and "zeros" add and
	// multiply exactly, so a tied y counted on the wrong side of an x moves
	// no bit there.
	{"rounding ties", func(rng *rand.Rand, n int) []float64 {
		set := [4]float64{0.1, 1.0 / 3, -2.7, 1e-3}
		return fill(n, func(int) float64 { return set[rng.Intn(4)] })
	}},
}

// telemetryShaped draws what cloudsim emits: base + sigma*noise, in two of
// every `of` windows with a mean shift or a sigma scale from the middle of
// the window on.
func telemetryShaped(rng *rand.Rand, n, of int) []float64 {
	base, sigma := 50+rng.Float64()*1000, 0.5+rng.Float64()*5
	shift, scale := 0.0, 1.0
	switch rng.Intn(of) {
	case 0:
		shift = sigma * (1 + rng.Float64()*6)
	case 1:
		scale = 2 + rng.Float64()*6
	}
	return fill(n, func(i int) float64 {
		if i < n/2 {
			return base + sigma*rng.NormFloat64()
		}
		return base + shift + sigma*scale*rng.NormFloat64()
	})
}

func fill(n int, f func(i int) float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = f(i)
	}
	return s
}

// genLen draws a series length: half the time around the too-short
// boundary (0 … 2·minSeg+1), otherwise up to a few look-back windows.
func genLen(rng *rand.Rand, minSeg int) int {
	if rng.Intn(2) == 0 {
		return rng.Intn(2*minSeg + 2)
	}
	return 2*minSeg + rng.Intn(60)
}

func TestKernelMatchesOracleEverySplit(t *testing.T) {
	perGen := 20000 // × 7 generators ≥ 10⁵ series
	if testing.Short() {
		perGen = 1000
	}
	for gi, g := range seriesGens {
		g, seed := g, int64(gi)
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(100 + seed))
			for trial := 0; trial < perGen; trial++ {
				minSeg := 1 + rng.Intn(6)
				checkScan(t, g.gen(rng, genLen(rng, minSeg)), minSeg, trial%2 == 1)
			}
		})
	}
}

func TestDetectMatchesOracle(t *testing.T) {
	perGen := 500
	if testing.Short() {
		perGen = 100
	}
	for gi, g := range seriesGens {
		g, seed := g, int64(gi)
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(200 + seed))
			for trial := 0; trial < perGen; trial++ {
				p := Params{
					MinSegment:   1 + rng.Intn(6),
					Permutations: []int{9, 19, 29, 99}[rng.Intn(4)],
					Alpha:        []float64{0.05, 0.1, 0.25}[rng.Intn(3)],
					MaxPoints:    []int{1, 2, 8}[rng.Intn(3)],
					Seed:         rng.Int63(),
				}
				checkDetect(t, g.gen(rng, genLen(rng, p.MinSegment)), p)
			}
		})
	}
}

// FuzzBestSplit feeds raw bytes, eight per value, to the scan and to a
// short Detect. The committed corpus (testdata/fuzz/FuzzBestSplit) holds
// the edge cases the generators above draw: NaNs of two payloads, ±Inf,
// ±0, denormals, ±MaxFloat64, ties, too-short series.
func FuzzBestSplit(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add(floatBytes(1, 2, 3, 4, 5, 101, 102, 103, 104, 105), uint8(4))
	f.Add(floatBytes(0, math.Copysign(0, -1), 0, math.Copysign(0, -1), 1, 1), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, seg uint8) {
		const maxLen = 256
		series := make([]float64, 0, maxLen)
		for ; len(data) >= 8 && len(series) < maxLen; data = data[8:] {
			series = append(series, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		}
		minSeg := 1 + int(seg%6)
		checkScan(t, series, minSeg, false)
		checkScan(t, series, minSeg, true)
		checkDetect(t, series, Params{MinSegment: minSeg, Permutations: 19, Seed: int64(seg)})
	})
}

func floatBytes(vs ...float64) []byte {
	b := make([]byte, 0, 8*len(vs))
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}
