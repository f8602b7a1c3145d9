package metrics

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// oldSummarize and oldSummarizeInPlace are Summarize (the copying form,
// deleted since: no caller) and SummarizeInPlace as they stood before the ordering kernel (internal/floatsort) went under
// them, kept verbatim as the oracle: copy, sort.Float64s, and three
// reduction passes — the mean, the mean again inside the standard deviation,
// and its squared-difference pass. oldSummarize returns the sorted copy as
// well, which is what SummarizeInPlace leaves in its argument. core's
// old-path oracle summarises a copy through SummarizeInPlace, which is the
// kernel, so the tests in this file are the only ones that pin the ordering
// itself.
func oldSummarize(xs []float64) ([]float64, SummaryStats) {
	if len(xs) == 0 {
		return nil, SummaryStats{}
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	return s, oldSummarizeInPlace(s)
}

func oldSummarizeInPlace(xs []float64) SummaryStats {
	if len(xs) == 0 {
		return SummaryStats{}
	}
	sort.Float64s(xs)
	return SummaryStats{
		Mean: oldMean(xs),
		Std:  oldStdDev(xs),
		Min:  xs[0],
		Max:  xs[len(xs)-1],
		P1:   Quantile(xs, 0.01),
		P10:  Quantile(xs, 0.10),
		P25:  Quantile(xs, 0.25),
		P50:  Quantile(xs, 0.50),
		P75:  Quantile(xs, 0.75),
		P90:  Quantile(xs, 0.90),
		P99:  Quantile(xs, 0.99),
	}
}

func oldMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

func oldStdDev(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := oldMean(xs)
	s := 0.0
	for _, v := range xs {
		d := v - m
		s += d * d
	}
	return math.Sqrt(s / float64(n-1))
}

// shapes are the buffer families the differential test, the fuzz seeds and
// BenchmarkSummarize draw from: what the feature builder produces (gaussian
// z-scores, spiked or not) and what it does not but must stay safe on. Each
// fills xs from rng.
var shapes = []struct {
	name string
	fill func(xs []float64, rng *rand.Rand)
}{
	{"gaussian", fillGaussian},
	{"ties4", func(xs []float64, rng *rand.Rand) {
		vals := [4]float64{rng.NormFloat64(), rng.NormFloat64(), -rng.ExpFloat64(), 0}
		for i := range xs {
			xs[i] = vals[rng.Intn(4)]
		}
	}},
	{"two-valued", func(xs []float64, rng *rand.Rand) {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		for i := range xs {
			xs[i] = a
			if rng.Intn(2) == 0 {
				xs[i] = b
			}
		}
	}},
	{"constant", func(xs []float64, rng *rand.Rand) {
		c := rng.NormFloat64()
		for i := range xs {
			xs[i] = c
		}
	}},
	// Values that share sign, exponent and their leading mantissa bits.
	{"narrow", func(xs []float64, rng *rand.Rand) {
		for i := range xs {
			xs[i] = 1000 + 1e-3*rng.Float64()
		}
	}},
	// Two narrow bands far apart: whatever key window spans both cannot
	// split either.
	{"clusters", func(xs []float64, rng *rand.Rand) {
		for i := range xs {
			xs[i] = 1 + 1e-9*rng.Float64()
			if rng.Intn(2) == 0 {
				xs[i] = -1e6 - 1e-3*rng.Float64()
			}
		}
	}},
	{"sorted", func(xs []float64, rng *rand.Rand) {
		fillGaussian(xs, rng)
		sort.Float64s(xs)
	}},
	{"reversed", func(xs []float64, rng *rand.Rand) {
		fillGaussian(xs, rng)
		sort.Sort(sort.Reverse(sort.Float64Slice(xs)))
	}},
	{"nearly-sorted", func(xs []float64, rng *rand.Rand) {
		fillGaussian(xs, rng)
		sort.Float64s(xs)
		for k := 0; k < 3 && len(xs) > 0; k++ {
			i, j := rng.Intn(len(xs)), rng.Intn(len(xs))
			xs[i], xs[j] = xs[j], xs[i]
		}
	}},
	// Rising, then falling back over the same range.
	{"organ-pipe", func(xs []float64, rng *rand.Rand) {
		fillGaussian(xs, rng)
		h := len(xs) / 2
		sort.Float64s(xs[:h])
		sort.Sort(sort.Reverse(sort.Float64Slice(xs[h:])))
	}},
	// What faults.Chaos does to a window: a sample in ten multiplied by ten,
	// and (the second shape) one in twenty a NaN as well.
	{"spikes", func(xs []float64, rng *rand.Rand) {
		for i := range xs {
			xs[i] = rng.NormFloat64()
			if rng.Intn(10) == 0 {
				xs[i] *= 10
			}
		}
	}},
	{"spikes+nan", func(xs []float64, rng *rand.Rand) {
		for i := range xs {
			xs[i] = rng.NormFloat64()
			switch u := rng.Float64(); {
			case u < 0.05:
				xs[i] = math.NaN()
			case u < 0.15:
				xs[i] *= 10
			}
		}
	}},
	{"specials", func(xs []float64, rng *rand.Rand) {
		for i := range xs {
			xs[i] = specials[rng.Intn(len(specials))]
		}
	}},
	{"gaussian+specials", func(xs []float64, rng *rand.Rand) {
		for i := range xs {
			xs[i] = rng.NormFloat64()
			if rng.Intn(16) == 0 {
				xs[i] = specials[rng.Intn(len(specials))]
			}
		}
	}},
}

func fillGaussian(xs []float64, rng *rand.Rand) {
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
}

var specials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1040, -0x1p-1040,
	math.MaxFloat64, -math.MaxFloat64,
	math.NaN(), math.Float64frombits(0xFFF8_0000_0000_BEEF), // two NaN payloads
	1, -1,
}

// same reports whether got can stand for want: bit-equal when exact, ==
// otherwise, and a NaN only for a NaN.
func same(got, want float64, exact bool) bool {
	if exact {
		return math.Float64bits(got) == math.Float64bits(want) || (got != got && want != want)
	}
	return got == want || (got != got && want != want)
}

// checkAgainstOracle runs SummarizeInPlace on a copy of xs and compares it
// with oldSummarize: the buffer it leaves must be element-wise == to the
// stdlib-sorted copy (a NaN wherever the oracle has one), and every
// statistic bit-equal — or == when the buffer holds both -0 and +0, whose
// mutual order sort.Float64s leaves open.
func checkAgainstOracle(t testing.TB, xs []float64) {
	t.Helper()
	wantSorted, want := oldSummarize(xs)
	got := append([]float64(nil), xs...)
	gotStats := SummarizeInPlace(got)

	var negZero, posZero bool
	for _, v := range xs {
		if v == 0 {
			if math.Signbit(v) {
				negZero = true
			} else {
				posZero = true
			}
		}
	}
	exact := !(negZero && posZero)
	for i := range wantSorted {
		if !same(got[i], wantSorted[i], false) {
			t.Fatalf("n=%d: sorted[%d] = %v, the stdlib sort has %v\ninput %v", len(xs), i, got[i], wantSorted[i], xs)
		}
	}
	g, w := gotStats.Vector(), want.Vector()
	for i := range w {
		if !same(g[i], w[i], exact) {
			t.Fatalf("n=%d: %s = %v (%#x), the old path has %v (%#x)\ninput %v", len(xs), SummaryNames[i],
				g[i], math.Float64bits(g[i]), w[i], math.Float64bits(w[i]), xs)
		}
	}
}

// TestSummarizeMatchesOldPath is the gate on the ordering kernel: every
// shape at every length from 0 to 2000, then short buffers up to 10⁵ in all
// (the lengths below the kernel's base case and around its bucket cap are
// where an off-by-one would live).
func TestSummarizeMatchesOldPath(t *testing.T) {
	step, total := 1, 100_000
	if testing.Short() {
		step, total = 23, 5_000
	}
	rng := rand.New(rand.NewSource(22))
	buf := make([]float64, 2000)
	done := 0
	for _, sh := range shapes {
		for n := 0; n <= len(buf); n += step {
			sh.fill(buf[:n], rng)
			checkAgainstOracle(t, buf[:n])
			done++
		}
	}
	for ; done < total; done++ {
		sh := shapes[done%len(shapes)]
		n := rng.Intn(161)
		sh.fill(buf[:n], rng)
		checkAgainstOracle(t, buf[:n])
	}
}

// floatsFromBytes reads data as little-endian float64s, dropping a tail
// shorter than eight bytes.
func floatsFromBytes(data []byte) []float64 {
	xs := make([]float64, len(data)/8)
	for i := range xs {
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return xs
}

// FuzzSummarize feeds raw bytes, read as float64s, to the same comparison:
// the mutator reaches NaN payloads, denormals and key-bit patterns no shape
// above draws. The corpus under testdata/fuzz/FuzzSummarize holds a buffer or
// two per shape, on either side of the kernel's digit-width switch.
func FuzzSummarize(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstOracle(t, floatsFromBytes(data))
	})
}
