package cpd

import (
	"math/rand"
	"sort"
)

// The pre-kernel change-point code, kept verbatim as the reference the
// differential tests (kernel_test.go) and the brute-force tests
// (detect_test.go) compare against: every candidate split copies and sorts
// both halves from scratch. Only the entry points that collide with the
// production names carry an "old" prefix.

// oldDetect returns the indices of statistically significant change points in
// the series, sorted ascending. An index i means the distribution of
// series[:i] differs from series[i:].
func oldDetect(series []float64, p Params) []int {
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(p.Seed ^ 0x5bd1e995))
	var out []int
	oldSegment(series, 0, p, rng, &out)
	sort.Ints(out)
	if len(out) > p.MaxPoints {
		out = out[:p.MaxPoints]
	}
	return out
}

// oldHasChange reports whether the series contains at least one significant
// change point. It short-circuits after the first detection.
func oldHasChange(series []float64, p Params) bool {
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(p.Seed ^ 0x5bd1e995))
	idx, stat := oldBestSplit(series, p.MinSegment)
	if idx < 0 {
		return false
	}
	return oldSignificant(series, stat, p, rng)
}

func oldSegment(series []float64, offset int, p Params, rng *rand.Rand, out *[]int) {
	if len(*out) >= p.MaxPoints || len(series) < 2*p.MinSegment {
		return
	}
	idx, stat := oldBestSplit(series, p.MinSegment)
	if idx < 0 || !oldSignificant(series, stat, p, rng) {
		return
	}
	*out = append(*out, offset+idx)
	oldSegment(series[:idx], offset, p, rng, out)
	oldSegment(series[idx:], offset+idx, p, rng, out)
}

// oldBestSplit finds the split index maximizing the scaled energy statistic.
// Returns (-1, 0) when the series is too short.
//
// For the univariate energy statistic we exploit sorting: the expected
// absolute difference between two samples can be computed in O(n log n)
// from prefix sums of the sorted values, so scanning all candidate splits
// costs O(n^2 log n) in the worst case but with small constants; series in
// this system are bounded by the Scout look-back window (tens to a couple
// hundred points).
func oldBestSplit(series []float64, minSeg int) (int, float64) {
	n := len(series)
	if n < 2*minSeg {
		return -1, 0
	}
	best, bestStat := -1, 0.0
	for i := minSeg; i <= n-minSeg; i++ {
		q := energyStat(series[:i], series[i:])
		if q > bestStat {
			best, bestStat = i, q
		}
	}
	return best, bestStat
}

// energyStat computes the scaled two-sample energy statistic
// Q = nm/(n+m) * (2*E|X-Y| - E|X-X'| - E|Y-Y'|).
func energyStat(x, y []float64) float64 {
	n, m := len(x), len(y)
	if n == 0 || m == 0 {
		return 0
	}
	exy := meanCrossAbs(x, y)
	exx := meanWithinAbs(x)
	eyy := meanWithinAbs(y)
	e := 2*exy - exx - eyy
	return float64(n) * float64(m) / float64(n+m) * e
}

// meanWithinAbs returns (1/n^2) * sum_{i,j} |x_i - x_j| (the V-statistic
// form of E|X - X'|), computed in O(n log n) via sorting: for sorted s,
// sum_{i<j} (s_j - s_i) = sum_j s_j * (2j - n + 1).
func meanWithinAbs(x []float64) float64 {
	n := len(x)
	if n < 2 {
		return 0
	}
	s := make([]float64, n)
	copy(s, x)
	sort.Float64s(s)
	sum := 0.0
	for i, v := range s {
		sum += float64(2*i-n+1) * v
	}
	// sum counts each unordered pair once; the V-statistic counts ordered
	// pairs, so multiply by 2 and divide by n^2.
	return 2 * sum / (float64(n) * float64(n))
}

// meanCrossAbs returns E|X - Y| using a merge over the two sorted samples.
func meanCrossAbs(x, y []float64) float64 {
	sx := make([]float64, len(x))
	copy(sx, x)
	sort.Float64s(sx)
	sy := make([]float64, len(y))
	copy(sy, y)
	sort.Float64s(sy)
	// For each xi, sum over yj of |xi - yj| =
	//   xi*k - prefix(k) + (suffix - (total - prefix(k)) ... computed via
	// prefix sums of sy.
	prefix := make([]float64, len(sy)+1)
	for i, v := range sy {
		prefix[i+1] = prefix[i] + v
	}
	total := prefix[len(sy)]
	sum := 0.0
	for _, xv := range sx {
		k := sort.SearchFloat64s(sy, xv)
		// y values below xv contribute xv - y; above contribute y - xv.
		sum += xv*float64(k) - prefix[k]
		sum += (total - prefix[k]) - xv*float64(len(sy)-k)
	}
	return sum / float64(len(sx)*len(sy))
}

// oldSignificant runs a permutation test: the observed statistic is compared
// with the best-split statistic of shuffled copies of the series.
func oldSignificant(series []float64, observed float64, p Params, rng *rand.Rand) bool {
	if observed <= 0 {
		return false
	}
	shuffled := make([]float64, len(series))
	copy(shuffled, series)
	geq := 0
	for i := 0; i < p.Permutations; i++ {
		rng.Shuffle(len(shuffled), func(a, b int) {
			shuffled[a], shuffled[b] = shuffled[b], shuffled[a]
		})
		_, stat := oldBestSplit(shuffled, p.MinSegment)
		if stat >= observed {
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

// exactReaches is reaches as it was before the running-sum scan, the
// reference TestReachesMatchesExactScan holds it to: energy at every
// candidate split, stopping at the first that scores at least observed.
func (k *kernel) exactReaches(rank []int32, minSeg int, observed float64) bool {
	n := len(rank)
	k.start(rank, minSeg)
	for i := minSeg; ; i++ {
		if k.energy(n, i) >= observed {
			return true
		}
		if i == n-minSeg {
			return false
		}
		k.side[rank[i]] |= before
	}
}
