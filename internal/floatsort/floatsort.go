// Package floatsort orders []float64 the way sort.Float64s does — ascending,
// NaNs first — without the data-dependent compare branches that make a
// comparison sort slow on unpredictable values: the §5.2 percentile ladder
// sorts every merged, normalised feature buffer, and pdqsort mispredicts
// most of its compares there (DESIGN.md §7.3).
package floatsort

import (
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
)

const (
	// small is the length below which the counting passes' fixed cost (two
	// 256-entry histograms to clear and sum) exceeds what they save.
	small = 24
	// A digit has narrowDigit bits, or wideDigit bits from length wide up,
	// where the finer buckets save more in the finish than clearing and
	// summing histograms four times as long costs (measured crossover).
	narrowDigit = 8
	wideDigit   = 10
	wide        = 200
	// runCap bounds the finish: a value that has to travel further than this
	// sits in a bucket the window could not split, and the bucket is sorted
	// again under its own, narrower window instead of by insertion.
	runCap = 32

	keyNegInf = 0x000F_FFFF_FFFF_FFFF // key(-Inf); the keys below it are NaNs
	keyPosInf = 0xFFF0_0000_0000_0000 // key(+Inf); the keys above it are NaNs
)

// scratch pools the buffer (*[]float64) the two counting passes bounce the
// values off.
var scratch sync.Pool

// key maps a float64 to a uint64 that orders as the float does: a negative
// value has all its bits flipped, a non-negative one only its sign bit.
// Distinct floats have distinct keys, -0 lands directly below +0, and the
// NaNs fall outside [keyNegInf, keyPosInf].
func key(v float64) uint64 {
	b := math.Float64bits(v)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// Sort sorts xs in place. The result is element-wise == to what
// sort.Float64s leaves: bit-identical except for the mutual order of -0 and
// +0, which the stdlib sort does not specify either. It allocates nothing
// once the scratch pool is warm.
//
// Two stable counting passes order the values by two digits of their keys,
// taken directly below the highest bit in which any two keys differ — the
// window follows the data, so a narrow band of values that share sign,
// exponent and leading mantissa bits is split as finely as a sample that
// straddles zero — and an insertion pass finishes inside the buckets.
// Neither counting pass has a branch that depends on a value. The stdlib
// sort remains the base case where it is the faster one or the keys do not
// apply: a short buffer, one that is mostly repeats of a few values (which
// pdqsort partitions away in fewer linear passes than the five here), and
// one that holds a NaN, which the chaos decorator does inject.
func Sort(xs []float64) {
	n := len(xs)
	if n < small {
		sort.Float64s(xs)
		return
	}
	// An ordered buffer is one scan for the stdlib sort; match it. Both scans
	// stop at a NaN.
	i := 1
	for i < n && xs[i-1] <= xs[i] {
		i++
	}
	if i == n {
		return
	}
	if i == 1 {
		for i < n && xs[i-1] >= xs[i] {
			i++
		}
		if i == n {
			slices.Reverse(xs)
			return
		}
	}

	lo, hi := ^uint64(0), uint64(0)
	repeats, prev := 0, ^key(xs[0])
	for _, v := range xs {
		k := key(v)
		lo, hi = min(lo, k), max(hi, k)
		if more := repeats + 1; k == prev {
			repeats = more // a conditional move, not a branch
		}
		prev = k
	}
	if lo < keyNegInf || hi > keyPosInf || repeats > n/3 {
		sort.Float64s(xs)
		return
	}

	w := narrowDigit
	if n >= wide {
		w = wideDigit
	}
	mask := uint64(1)<<w - 1
	shift := max(bits.Len64(lo^hi)-2*w, 0)

	var lowCounts, highCounts [1 << wideDigit]uint32
	lows, highs := lowCounts[:mask+1], highCounts[:mask+1]
	for _, v := range xs {
		d := key(v) >> shift
		lows[d&mask]++
		highs[d>>w&mask]++
	}
	var atLow, atHigh uint32
	for d := range lows {
		cl, ch := lows[d], highs[d]
		lows[d], highs[d] = atLow, atHigh
		atLow += cl
		atHigh += ch
	}

	buf, _ := scratch.Get().(*[]float64)
	if buf == nil {
		buf = new([]float64)
	}
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	tmp := (*buf)[:n]
	for _, v := range xs {
		d := key(v) >> shift & mask
		tmp[lows[d]] = v
		lows[d]++
	}
	for _, v := range tmp {
		d := key(v) >> shift >> w & mask
		xs[highs[d]] = v
		highs[d]++
	}
	scratch.Put(buf)

	finish(xs, shift)
}

// finish completes the order inside the buckets the counting passes left —
// runs of values whose keys agree from bit shift up — by insertion, which
// never moves a value out of its bucket. A value that travels more than
// runCap places proves its bucket over-full: values apart by less than the
// window resolves, such as two tight clusters far from each other. That
// bucket goes through Sort again, where its own key range puts the
// window strictly below shift, so the recursion ends within 64/(2·8)
// levels and no input pays a quadratic finish.
func finish(xs []float64, shift int) {
	for i := 1; i < len(xs); i++ {
		v := xs[i]
		if !(v < xs[i-1]) {
			continue
		}
		j := i
		for {
			xs[j] = xs[j-1]
			j--
			if j == 0 || !(v < xs[j-1]) {
				break
			}
		}
		xs[j] = v
		if i-j > runCap {
			start, end, b := j, i+1, key(v)>>shift
			for start > 0 && key(xs[start-1])>>shift == b {
				start--
			}
			for end < len(xs) && key(xs[end])>>shift == b {
				end++
			}
			Sort(xs[start:end])
			i = end - 1
		}
	}
}
