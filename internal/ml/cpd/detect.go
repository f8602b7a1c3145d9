// Package cpd implements nonparametric change-point detection and the
// paper's CPD+ extension (§5.2.2).
//
// The base detector follows the energy-statistic approach of Matteson and
// James ("A nonparametric approach for multiple change point analysis of
// multivariate data", JASA 2014, [51] in the paper): a candidate split of a
// series into two segments is scored with the two-sample energy statistic,
// the best split is tested for significance with a permutation test, and
// detection recurses on both halves (binary segmentation). The test is in
// two tiers: it only compares a shuffle's candidates with the observed
// statistic, so running sums with a proven error bound decide every
// candidate further than the bound from it, and the exact statistic the rest.
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
	"sync"
	"sync/atomic"

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
	k := acquire(len(series), p.Seed)
	var out []int
	k.segment(series, 0, p, &out)
	kernels.Put(k)
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
	k := acquire(len(series), p.Seed)
	idx, stat := k.bestSplit(series, p.MinSegment)
	found := idx >= 0 && k.significant(len(series), stat, p)
	kernels.Put(k)
	return found
}

// kernel is the scratch of one Detect or HasChange call. Binary
// segmentation works on one segment at a time — best split, permutation
// test, then the two sub-segments — so one set of buffers sized for the
// whole series serves every segment and every permutation.
//
// A scan works in rank space: the segment is sorted once, every series
// position knows its sorted position, and the split is one byte per sorted
// position saying which side of it that value is on. The two sorted halves
// the energy statistic is evaluated over are the two subsequences of sorted
// that side selects. That is the exact tier, and all of bestSplit; the
// permutation test's own scan (reaches) walks the running sums below and
// comes here for the candidates they cannot decide.
type kernel struct {
	// sorted is the current segment sorted ascending.
	sorted []float64
	// rank[i] is the sorted position of the segment's i-th value, a
	// bijection; equal values take the positions of their run in any order.
	rank []int32
	// perm is the permutation test's working copy of rank.
	perm []int32
	// side[p] has bit before set while sorted[p] is before the split, and
	// bit first where sorted[p] starts a run of == values.
	side []uint8

	// xs and ys are sorted's values before and from the split on, each
	// ascending, every x with the count of ys ordered strictly below it;
	// prefix[j] is ys[0] + … + ys[j-1] summed in that order (prefix[0] stays
	// 0). energy rebuilds all three at every candidate.
	xs         []xvalue
	ys, prefix []float64

	// What prepare leaves for reaches: total is the sum of |a - b| over the
	// segment's unordered pairs, dist[p] the sum of |sorted[p] - a| over its
	// values a, ratio[j] is (n-j)/j, scale 2/n, and delta twice the bound on
	// |statistic - energy| at any candidate split, +Inf where none holds.
	// moved holds the values a scan has taken across the split, in order.
	dist, ratio, moved  []float64
	total, scale, delta float64
	// settled counts the candidates energy decided: the tests read it to
	// show that the band is reached, and that it is rare.
	settled int

	src source
	rng *rand.Rand // over &src
}

// xvalue is a value before the split and the count of values from the
// split on that are ordered strictly below it.
type xvalue struct {
	v     float64
	below int
}

// The bits of kernel.side.
const (
	before = 1 << iota
	first
)

// kernels pools the scratch, generator included: a Detect that finds no
// change point allocates nothing.
var kernels = sync.Pool{New: func() any {
	k := new(kernel)
	k.rng = rand.New(&k.src)
	return k
}}

// acquire returns a kernel with room for n points and its generator at the
// start of seed's stream.
func acquire(n int, seed int64) *kernel {
	k := kernels.Get().(*kernel)
	k.src.Seed(seed ^ 0x5bd1e995)
	if len(k.sorted) < n {
		f := make([]float64, 6*n+1)
		k.sorted, k.ys, k.dist, k.ratio, k.moved, k.prefix = f[:n], f[n:2*n], f[2*n:3*n], f[3*n:4*n], f[4*n:5*n], f[5*n:]
		i := make([]int32, 2*n)
		k.rank, k.perm = i[:n], i[n:]
		k.xs = make([]xvalue, n)
		k.side = make([]uint8, n)
	}
	return k
}

func (k *kernel) segment(series []float64, offset int, p Params, out *[]int) {
	if len(*out) >= p.MaxPoints || len(series) < 2*p.MinSegment {
		return
	}
	idx, stat := k.bestSplit(series, p.MinSegment)
	if idx < 0 || !k.significant(len(series), stat, p) {
		return
	}
	*out = append(*out, offset+idx)
	k.segment(series[:idx], offset, p, out)
	k.segment(series[idx:], offset+idx, p, out)
}

// bestSplit finds the split index maximizing the scaled energy statistic
// and leaves the segment's sorted values and ranks behind for significant.
// It returns (-1, 0) when the series is too short or no split scores above
// zero.
//
// The segment is sorted once. A scan then walks the candidate splits left
// to right, marking one more sorted position as before the split each step,
// and evaluates the statistic in O(n) per candidate with no branch that
// depends on a value: O(n²) per scan and no allocation, for series bounded
// by the Scout look-back window (tens to a couple hundred points). energy
// sums the values a per-candidate sort of both halves would produce, in
// the same order, so every statistic is bit-identical to computing each
// split from scratch.
func (k *kernel) bestSplit(series []float64, minSeg int) (int, float64) {
	n := len(series)
	if n < 2*minSeg {
		return -1, 0
	}
	sorted := k.sorted[:n]
	copy(sorted, series)
	floatsort.Sort(sorted)
	if sorted[0] != sorted[0] {
		// NaNs sort first, and one NaN makes every candidate's statistic
		// NaN, which no > selects.
		return -1, 0
	}
	k.index(series)
	rank := k.rank[:n]
	k.start(rank, minSeg)
	best, bestStat := -1, 0.0
	for i := minSeg; ; i++ {
		if q := k.energy(n, i); q > bestStat {
			best, bestStat = i, q
		}
		if i == n-minSeg {
			return best, bestStat
		}
		k.side[rank[i]] |= before
	}
}

// reaches reports whether any candidate split of the segment prepare last
// saw, its values taken in the order rank gives, scores at least observed.
// The permutation test only asks whether the permutation's best statistic
// is >= observed, and max >= observed exactly when some candidate is, so
// the scan stops at the first one.
//
// Nor does the test read a statistic: a candidate is decided by statistic,
// a handful of flops on two running sums, wherever that is further than
// delta from observed, and by energy — which alone defines the statistic —
// inside that band. With delta +Inf, or a NaN, every candidate is inside.
func (k *kernel) reaches(rank []int32, minSeg int, observed float64) bool {
	n := len(rank)
	above, below := observed+k.delta, observed-k.delta
	s := sums{0, k.total}
	for i, r := range rank[:n-minSeg] {
		s = k.cross(s, i, r)
		nx := i + 1
		if nx < minSeg {
			continue
		}
		q := k.statistic(s, n, nx)
		if q > above {
			return true
		}
		if q < below {
			continue
		}
		k.settled++
		k.start(rank, nx)
		if k.energy(n, nx) >= observed {
			return true
		}
	}
	return false
}

// sums are the running sums of a scan at one split: of |a - b| over the
// unordered pairs of values before the split, and over those from it on.
// The pairs across the split have the rest of kernel.total.
type sums struct{ within, beyond float64 }

// cross takes sorted[r] across the split as the i-th value to cross: its
// distances to the values already before the split, summed in one pass over
// them, join within, and its distances to the rest — what remains of dist[r]
// — leave beyond.
func (k *kernel) cross(s sums, i int, r int32) sums {
	v := k.sorted[r]
	d := 0.0
	for _, x := range k.moved[:i] {
		d += math.Abs(v - x)
	}
	k.moved[i] = v
	return sums{s.within + d, s.beyond - (k.dist[r] - d)}
}

// statistic is the scaled energy statistic of the split s stands at, nx
// values before it, from the running sums:
// Q = 2/n * (S_xy - m/nx*S_xx - nx/m*S_yy) with S_xy = total - S_xx - S_yy.
// It differs from energy by at most delta/2 (DESIGN.md §7.4.1).
func (k *kernel) statistic(s sums, n, nx int) float64 {
	across := k.total - s.within - s.beyond
	return k.scale * (across - k.ratio[nx]*s.within - k.ratio[n-nx]*s.beyond)
}

// index fills rank and side's first bits for series, whose sorted values
// are in sorted and hold no NaN.
func (k *kernel) index(series []float64) {
	n := len(series)
	sorted, side, rank := k.sorted[:n], k.side[:n], k.rank[:n]
	// taken[p], for a run's first position p, counts the ranks the run has
	// handed out.
	taken := k.perm[:n]
	for p, v := range sorted {
		side[p], taken[p] = 0, 0
		if p == 0 || v != sorted[p-1] {
			side[p] = first
		}
	}
	for i, v := range series {
		lo := sort.SearchFloat64s(sorted, v) // where v's run starts
		rank[i] = int32(lo) + taken[lo]
		taken[lo]++
	}
}

// start puts a scan at its first candidate split: the first minSeg values,
// in the order rank gives, are before it.
func (k *kernel) start(rank []int32, minSeg int) {
	side := k.side[:len(rank)]
	for p := range side {
		side[p] &= first
	}
	for _, r := range rank[:minSeg] {
		side[r] |= before
	}
}

// energy computes the scaled two-sample energy statistic
// Q = nm/(n+m) * (2*E|X-Y| - E|X-X'| - E|Y-Y'|) of the first n values of
// sorted split by side, nx of them before the split (0 < nx < n).
//
// One stable partition of sorted yields both halves ascending, and for each
// x the count of ys strictly below it: the ys seen when x's run of equal
// values began. For sorted s, sum_{i<j} (s_j - s_i) = sum_j s_j*(2j-n+1),
// which gives the V-statistic E|X-X'| as twice that over n². For E|X-Y|,
// with k values of y below x_i, sum_j |x_i - y_j| =
// x_i*k - prefix(k) + (total - prefix(k)) - x_i*(m-k). Equal values
// contribute equal terms (zeros of either sign contribute zero), so which
// of a run's positions a value took does not reach the result.
func (k *kernel) energy(n, nx int) float64 {
	m := n - nx
	split(k.sorted[:n], k.side[:n], k.xs[:n], k.ys[:n])
	// prefix takes the running sum as it stands in the register: reading
	// prefix[j] back to form prefix[j+1] would put a store and a load on
	// the chain of additions.
	prefix := k.prefix[:m+1]
	total, withinY := 0.0, 0.0
	c := float64(1 - m)
	for j, v := range k.ys[:m] {
		total += v
		withinY += c * v
		prefix[j+1] = total
		c += 2
	}
	cross, withinX := 0.0, 0.0
	c = float64(1 - nx)
	for _, x := range k.xs[:nx] {
		v, pre := x.v, prefix[x.below]
		cross += v*float64(x.below) - pre
		cross += (total - pre) - v*float64(m-x.below)
		withinX += c * v
		c += 2
	}
	exy := cross / float64(nx*m)
	exx, eyy := 0.0, 0.0
	if nx > 1 {
		exx = 2 * withinX / (float64(nx) * float64(nx))
	}
	if m > 1 {
		eyy = 2 * withinY / (float64(m) * float64(m))
	}
	e := 2*exy - exx - eyy
	return float64(nx) * float64(m) / float64(nx+m) * e
}

// split partitions sorted stably by side's before bit into xs and ys, and
// gives every x the count of ys that precede the start of its run of equal
// values. Every position writes to both halves and advances only its own.
func split(sorted []float64, side []uint8, xs []xvalue, ys []float64) {
	i, below := 0, 0
	for p, v := range sorted {
		f := side[p]
		if f&first != 0 {
			below = p - i
		}
		xs[i] = xvalue{v, below}
		ys[p-i] = v
		i += int(f & before)
	}
}

// prepare readies reaches for the n-point segment bestSplit last sorted:
// the sums the multiset fixes, and delta.
//
// Every sum is of non-negative terms — a value's distances to the values
// below it grow by (count below) * gap from one sorted position to the next,
// likewise from above — so each is within a few n roundings of the real sum
// whatever offset the values share. delta is the forward-error bound of
// DESIGN.md §7.4.1, doubled: 90*rho*u*total for statistic, rho the largest
// m/nx or nx/m of a candidate and u = 2^-53; (2.25n² + 13.5n)*u*largest for
// energy, which does not subtract the offset out; and n/2 + 3 steps of the
// subnormal grid, where a product or quotient rounds to the step, not to u.
// Where the un-scaled bound is not finite — an infinite value, sums that
// may overflow — none holds.
func (k *kernel) prepare(n, minSeg int) {
	sorted, dist, ratio := k.sorted[:n], k.dist[:n], k.ratio[:n]
	below, total := 0.0, 0.0
	dist[0] = 0
	for p := 1; p < n; p++ {
		below += float64(p) * (sorted[p] - sorted[p-1])
		dist[p] = below
		total += below
	}
	above := 0.0
	for p := n - 2; p >= 0; p-- {
		above += float64(n-1-p) * (sorted[p+1] - sorted[p])
		dist[p] += above
	}
	for j := 1; j < n; j++ {
		ratio[j] = float64(n-j) / float64(j)
	}
	k.total, k.scale = total, 2/float64(n)
	largest := math.Max(-sorted[0], sorted[n-1])
	bound := 256*ratio[minSeg]*total + 8*float64(n*(n+4))*largest
	k.delta = math.Inf(1)
	if bound <= math.MaxFloat64 {
		k.delta = bound*0x1p-53 + 2*float64(n+4)*math.SmallestNonzeroFloat64
	}
}

// significant runs a permutation test on the n-point segment bestSplit was
// last called on: the observed statistic is compared with the best-split
// statistic of shuffles of the segment. Shuffling the ranks is shuffling
// the values.
func (k *kernel) significant(n int, observed float64, p Params) bool {
	if observed <= 0 {
		return false
	}
	k.prepare(n, p.MinSegment)
	perm := k.perm[:n]
	copy(perm, k.rank[:n])
	geq := 0
	for i := 0; i < p.Permutations; i++ {
		k.rng.Shuffle(n, func(a, b int) {
			perm[a], perm[b] = perm[b], perm[a]
		})
		if k.reaches(perm, p.MinSegment, observed) {
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

// source replicates the generator behind rand.NewSource — the additive
// lagged Fibonacci x[t] = x[t-607] + x[t-273] over uint64 — as a value that
// can be copied: seeding math/rand's own runs a 607-step multiplicative
// generator, and every Detect of a training wants the same stream again.
// Only the recurrence is assumed; the state comes from the real generator,
// whose stream the Go 1 compatibility promise freezes.
type source struct {
	pos  int
	ring [sourceLen]uint64 // the last sourceLen values, the oldest at pos
}

const (
	sourceLen = 607
	sourceTap = 273
)

// seeded is the source last derived, at the start of its stream, and never
// written again. core leaves Params.Seed alone, so one serves a whole
// process.
var seeded atomic.Pointer[seededSource]

type seededSource struct {
	seed int64
	src  source
}

// Seed puts s at the start of the stream rand.NewSource(seed) produces.
func (s *source) Seed(seed int64) {
	t := seeded.Load()
	if t == nil || t.seed != seed {
		t = &seededSource{seed: seed}
		t.src.derive(seed)
		seeded.Store(t)
	}
	*s = t.src
}

// derive recovers the state rand.NewSource(seed) starts from: sourceLen
// outputs of the real generator are the ring one lap on, and the
// recurrence run backwards, x[t-607] = x[t] - x[t-273], undoes the lap.
func (s *source) derive(seed int64) {
	real := rand.NewSource(seed).(rand.Source64)
	for t := range s.ring {
		s.ring[t] = real.Uint64()
	}
	for t := sourceLen - 1; t >= 0; t-- {
		s.ring[t] -= s.ring[tapOf(t)]
	}
	s.pos = 0
}

// tapOf returns the ring position sourceTap outputs before pos's.
func tapOf(pos int) int {
	if pos < sourceTap {
		return pos + sourceLen - sourceTap
	}
	return pos - sourceTap
}

// Uint64 returns the stream's next value.
func (s *source) Uint64() uint64 {
	x := s.ring[s.pos] + s.ring[tapOf(s.pos)]
	s.ring[s.pos] = x
	if s.pos++; s.pos == sourceLen {
		s.pos = 0
	}
	return x
}

// Int63 returns the stream's next value without its top bit.
func (s *source) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }
