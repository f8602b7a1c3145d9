// Package cpd implements nonparametric change-point detection and the
// paper's CPD+ extension (§5.2.2).
//
// The base detector follows the energy-statistic approach of Matteson and
// James ("A nonparametric approach for multiple change point analysis of
// multivariate data", JASA 2014, [51] in the paper): a candidate split of a
// series into two segments is scored with the two-sample energy statistic,
// the best split is tested for significance with a permutation test, and
// detection recurses on both halves (binary segmentation).
//
// CPD+ extends the detector for incident routing: it handles EVENT data
// (which has no distribution to shift), learns — with a small random
// forest — which combinations of change points actually indicate failures
// when a whole cluster is implicated, and falls back to a conservative
// any-signal rule when the incident names only a handful of devices.
package cpd

import (
	"math"
	"math/rand"
	"sort"

	"scouts/internal/floatsort"
)

// Params configure the change-point detector.
type Params struct {
	// MinSegment is the minimum number of points on each side of a change
	// point (default 5).
	MinSegment int
	// Permutations is the number of permutations in the significance test
	// (default 99).
	Permutations int
	// Alpha is the significance level (default 0.05).
	Alpha float64
	// MaxPoints bounds how many change points are reported (default 8).
	MaxPoints int
	// Seed drives the permutation test.
	Seed int64
}

func (p Params) withDefaults() Params {
	if p.MinSegment <= 0 {
		p.MinSegment = 5
	}
	if p.Permutations <= 0 {
		p.Permutations = 99
	}
	if p.Alpha <= 0 {
		p.Alpha = 0.05
	}
	if p.MaxPoints <= 0 {
		p.MaxPoints = 8
	}
	return p
}

// Detect returns the indices of statistically significant change points in
// the series, sorted ascending. An index i means the distribution of
// series[:i] differs from series[i:].
func Detect(series []float64, p Params) []int {
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(p.Seed ^ 0x5bd1e995))
	k := newKernel(len(series))
	var out []int
	k.segment(series, 0, p, rng, &out)
	sort.Ints(out)
	if len(out) > p.MaxPoints {
		out = out[:p.MaxPoints]
	}
	return out
}

// HasChange reports whether the series contains at least one significant
// change point. It short-circuits after the first detection.
func HasChange(series []float64, p Params) bool {
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(p.Seed ^ 0x5bd1e995))
	k := newKernel(len(series))
	idx, stat := k.bestSplit(series, p.MinSegment)
	if idx < 0 {
		return false
	}
	return k.significant(series, stat, p, rng)
}

// kernel is the scratch of one Detect or HasChange call. Binary
// segmentation works on one segment at a time — best split, permutation
// test, then the two sub-segments — so one set of buffers sized for the
// whole series serves every segment and every permutation.
type kernel struct {
	// halves holds, while a scan stands at candidate split i, the values
	// before the split sorted ascending in halves[:i] and the values from it
	// on sorted ascending in halves[i:]: exactly the two arrays the energy
	// statistic is evaluated over.
	halves []float64
	// sorted is the current segment sorted once; every scan of the segment
	// or of a permutation of it (the same multiset) starts from a copy.
	sorted []float64
	// shuffled is the permutation test's working copy of the segment.
	shuffled []float64
}

func newKernel(n int) *kernel {
	buf := make([]float64, 3*n)
	return &kernel{halves: buf[:n], sorted: buf[n : 2*n], shuffled: buf[2*n:]}
}

func (k *kernel) segment(series []float64, offset int, p Params, rng *rand.Rand, out *[]int) {
	if len(*out) >= p.MaxPoints || len(series) < 2*p.MinSegment {
		return
	}
	idx, stat := k.bestSplit(series, p.MinSegment)
	if idx < 0 || !k.significant(series, stat, p, rng) {
		return
	}
	*out = append(*out, offset+idx)
	k.segment(series[:idx], offset, p, rng, out)
	k.segment(series[idx:], offset+idx, p, rng, out)
}

// bestSplit finds the split index maximizing the scaled energy statistic
// and leaves the sorted segment behind for significant. It returns (-1, 0)
// when the series is too short or no split scores above zero.
//
// The segment is sorted once. A scan then walks the candidate splits left
// to right, moving one value at a time from the sorted right half to the
// sorted left half (a binary search and one memmove), and evaluates the
// statistic over the two sorted halves in O(n): O(n²) per scan and no
// allocation, for series bounded by the Scout look-back window (tens to a
// couple hundred points). The halves hold the same values a per-candidate
// sort would produce and energy sums them in the same order, so every
// statistic is bit-identical to computing each split from scratch.
//
//scout:hotpath
func (k *kernel) bestSplit(series []float64, minSeg int) (int, float64) {
	n := len(series)
	if n < 2*minSeg {
		return -1, 0
	}
	sorted := k.sorted[:n]
	copy(sorted, series)
	floatsort.Sort(sorted)
	k.start(series, minSeg)
	best, bestStat := -1, 0.0
	for i := minSeg; ; i++ {
		if q := energy(k.halves[:i], k.halves[i:n]); q > bestStat {
			best, bestStat = i, q
		}
		if i == n-minSeg {
			return best, bestStat
		}
		k.move(series[i], i, n)
	}
}

// reaches reports whether any candidate split of series, a permutation of
// the segment bestSplit last sorted, scores at least observed. The
// permutation test only asks whether the permutation's best statistic is
// >= observed, and max >= observed exactly when some candidate is, so the
// scan stops at the first one.
//
//scout:hotpath
func (k *kernel) reaches(series []float64, minSeg int, observed float64) bool {
	n := len(series)
	k.start(series, minSeg)
	for i := minSeg; ; i++ {
		if energy(k.halves[:i], k.halves[i:n]) >= observed {
			return true
		}
		if i == n-minSeg {
			return false
		}
		k.move(series[i], i, n)
	}
}

// start puts a scan of series at its first candidate split.
//
//scout:hotpath
func (k *kernel) start(series []float64, minSeg int) {
	n := len(series)
	copy(k.halves[:n], k.sorted[:n])
	for i := 0; i < minSeg; i++ {
		k.move(series[i], i, n)
	}
}

// move advances the split from i to i+1: v, the series value at i, leaves
// the sorted right half halves[i:n] and enters the sorted left half
// halves[:i]. The slot v vacates and the slot it takes bracket the values
// between them, which shift up by one.
//
//scout:hotpath
func (k *kernel) move(v float64, i, n int) {
	h := k.halves[:n]
	// First value of the right half not ordered before v; among the values
	// that tie with it (±0, NaN payloads) v itself is there.
	lo, hi := i, n
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); less(h[mid], v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	from := lo
	for math.Float64bits(h[from]) != math.Float64bits(v) {
		from++
	}
	// First value of the left half ordered after v.
	lo, hi = 0, i
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); less(v, h[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	copy(h[lo+1:from+1], h[lo:from])
	h[lo] = v
}

// less is sort.Float64s's order: ascending, NaNs first.
func less(a, b float64) bool { return a < b || (a != a && b == b) }

// energy computes the scaled two-sample energy statistic
// Q = nm/(n+m) * (2*E|X-Y| - E|X-X'| - E|Y-Y'|) of two non-empty samples
// sorted ascending.
//
// For sorted s, sum_{i<j} (s_j - s_i) = sum_j s_j * (2j - n + 1), which
// gives the V-statistic E|X-X'| as twice that over n². E|X-Y| is a merge:
// with k values of y below x_i, sum_j |x_i - y_j| =
// x_i*k - prefix(k) + (total - prefix(k)) - x_i*(m-k); x ascends, so k and
// the running prefix only move forward. Equal values contribute equal
// terms (zeros of either sign contribute zero), so the order sort leaves
// ties in does not reach the result; any NaN makes it NaN.
//
//scout:hotpath
func energy(x, y []float64) float64 {
	n, m := len(x), len(y)
	total, withinY := 0.0, 0.0
	for j, v := range y {
		total += v
		withinY += float64(2*j-m+1) * v
	}
	cross, withinX := 0.0, 0.0
	k, prefix := 0, 0.0
	for i, v := range x {
		for k < m && y[k] < v {
			prefix += y[k]
			k++
		}
		cross += v*float64(k) - prefix
		cross += (total - prefix) - v*float64(m-k)
		withinX += float64(2*i-n+1) * v
	}
	exy := cross / float64(n*m)
	exx, eyy := 0.0, 0.0
	if n > 1 {
		exx = 2 * withinX / (float64(n) * float64(n))
	}
	if m > 1 {
		eyy = 2 * withinY / (float64(m) * float64(m))
	}
	e := 2*exy - exx - eyy
	return float64(n) * float64(m) / float64(n+m) * e
}

// significant runs a permutation test: the observed statistic is compared
// with the best-split statistic of shuffled copies of the series, the
// segment bestSplit was last called on.
func (k *kernel) significant(series []float64, observed float64, p Params, rng *rand.Rand) bool {
	if observed <= 0 {
		return false
	}
	shuffled := k.shuffled[:len(series)]
	copy(shuffled, series)
	geq := 0
	for i := 0; i < p.Permutations; i++ {
		rng.Shuffle(len(shuffled), func(a, b int) {
			shuffled[a], shuffled[b] = shuffled[b], shuffled[a]
		})
		if k.reaches(shuffled, p.MinSegment, observed) {
			geq++
			// Early exit: p-value already above alpha.
			if float64(geq+1)/float64(p.Permutations+1) > p.Alpha {
				return false
			}
		}
	}
	pval := float64(geq+1) / float64(p.Permutations+1)
	return pval <= p.Alpha
}
