// Package metrics implements the evaluation metrics used throughout the
// paper: precision/recall/F1 for binary classifiers (§7 "Accuracy Metrics"),
// empirical CDFs and percentile summaries for the figure reproductions, and
// the Euclidean class-distance analyses of Appendix B (Figures 13–14).
package metrics

import (
	"fmt"
	"math"
	"sort"

	"scouts/internal/floatsort"
)

// Confusion is a binary-classification confusion matrix. By the paper's
// convention the positive class is "this team (PhyNet) is responsible".
type Confusion struct {
	TP, FP, TN, FN int
}

// Add records one (predicted, actual) observation.
func (c *Confusion) Add(predicted, actual bool) {
	switch {
	case predicted && actual:
		c.TP++
	case predicted && !actual:
		c.FP++
	case !predicted && !actual:
		c.TN++
	default:
		c.FN++
	}
}

// Total returns the number of recorded observations.
func (c *Confusion) Total() int { return c.TP + c.FP + c.TN + c.FN }

// Precision is TP / (TP + FP): how trustworthy a positive output is.
// Returns 1 when the classifier never fired (vacuous precision).
func (c *Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 1
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall is TP / (TP + FN): the portion of positive incidents found.
// Returns 1 when there were no positive incidents at all.
func (c *Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 1
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// Accuracy is the fraction of correct predictions.
func (c *Confusion) Accuracy() float64 {
	t := c.Total()
	if t == 0 {
		return 1
	}
	return float64(c.TP+c.TN) / float64(t)
}

// F1 is the harmonic mean of precision and recall.
func (c *Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// String renders the matrix in a compact single line for logs and tests.
func (c *Confusion) String() string {
	return fmt.Sprintf("TP=%d FP=%d TN=%d FN=%d P=%.3f R=%.3f F1=%.3f",
		c.TP, c.FP, c.TN, c.FN, c.Precision(), c.Recall(), c.F1())
}

// CDF is an empirical cumulative distribution built from a sample.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF. The input slice is copied.
func NewCDF(sample []float64) *CDF {
	s := make([]float64, len(sample))
	copy(s, sample)
	floatsort.Sort(s)
	return &CDF{sorted: s}
}

// Len returns the sample size.
func (c *CDF) Len() int { return len(c.sorted) }

// At returns P(X <= x).
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// sort.SearchFloat64s finds the first index with sorted[i] >= x; walk
	// forward over ties so we count values <= x.
	i := sort.SearchFloat64s(c.sorted, x)
	for i < len(c.sorted) && c.sorted[i] <= x {
		i++
	}
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-th sample quantile, q in [0, 1], with linear
// interpolation between order statistics.
func (c *CDF) Quantile(q float64) float64 {
	return Quantile(c.sorted, q)
}

// Mean returns the sample mean.
func (c *CDF) Mean() float64 { return Mean(c.sorted) }

// Points samples the CDF at n evenly spaced probabilities and returns
// (value, probability) pairs, convenient for printing figure series.
func (c *CDF) Points(n int) [][2]float64 {
	if n < 2 {
		n = 2
	}
	out := make([][2]float64, 0, n)
	for i := 0; i < n; i++ {
		q := float64(i) / float64(n-1)
		out = append(out, [2]float64{c.Quantile(q), q})
	}
	return out
}

// Quantile computes the q-th quantile of an ALREADY SORTED sample with
// linear interpolation. It is exported so callers that maintain sorted data
// can avoid the CDF allocation.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean (0 for an empty sample).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation (0 for n < 2).
func StdDev(xs []float64) float64 {
	return stdDevAround(xs, Mean(xs))
}

// stdDevAround is StdDev for a caller that already holds the sample's mean.
func stdDevAround(xs []float64, mean float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := 0.0
	for _, v := range xs {
		d := v - mean
		s += d * d
	}
	return math.Sqrt(s / float64(n-1))
}

// SummaryStats is the fixed statistic set the Scout framework computes over
// every time series (§5.2): mean, std, min, max and the paper's percentile
// ladder (1, 10, 25, 50, 75, 90, 99).
type SummaryStats struct {
	Mean, Std, Min, Max              float64
	P1, P10, P25, P50, P75, P90, P99 float64
}

// SummaryNames lists the feature names of SummaryStats in Vector() order.
var SummaryNames = []string{
	"mean", "std", "min", "max", "p1", "p10", "p25", "p50", "p75", "p90", "p99",
}

// SummarizeInPlace computes SummaryStats over a sample the caller is done
// with: xs is sorted where it lies, and Mean and Std sum the sorted values.
// An empty sample yields the zero value, which the feature builder treats as
// "component not observed".
func SummarizeInPlace(xs []float64) SummaryStats {
	if len(xs) == 0 {
		return SummaryStats{}
	}
	floatsort.Sort(xs)
	mean := Mean(xs)
	return SummaryStats{
		Mean: mean,
		Std:  stdDevAround(xs, mean),
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

// Vector flattens the statistics in SummaryNames order.
func (s SummaryStats) Vector() []float64 {
	out := make([]float64, len(SummaryNames))
	s.VectorInto(out)
	return out
}

// VectorInto writes the statistics into dst (len(SummaryNames) cells) in
// SummaryNames order — the allocation-free form the featurization hot path
// uses to fill pooled feature vectors in place.
func (s SummaryStats) VectorInto(dst []float64) {
	dst[0], dst[1], dst[2], dst[3] = s.Mean, s.Std, s.Min, s.Max
	dst[4], dst[5], dst[6], dst[7] = s.P1, s.P10, s.P25, s.P50
	dst[8], dst[9], dst[10] = s.P75, s.P90, s.P99
}

// Euclidean returns the Euclidean distance between two feature vectors.
func Euclidean(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("metrics: Euclidean dimension mismatch")
	}
	s := 0.0
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// ClassDistances computes the three distance distributions of Figure 13:
// pairwise distances within the positive class, within the negative class,
// and across the two classes. To keep the computation bounded for large
// samples, at most maxPairs pairs are used per distribution, taken in a
// deterministic stride over the pair space.
func ClassDistances(pos, neg [][]float64, maxPairs int) (withinPos, withinNeg, cross []float64) {
	withinPos = pairDistances(pos, pos, true, maxPairs)
	withinNeg = pairDistances(neg, neg, true, maxPairs)
	cross = pairDistances(pos, neg, false, maxPairs)
	return withinPos, withinNeg, cross
}

func pairDistances(a, b [][]float64, same bool, maxPairs int) []float64 {
	if maxPairs <= 0 {
		maxPairs = 1 << 20
	}
	var total int
	if same {
		total = len(a) * (len(a) - 1) / 2
	} else {
		total = len(a) * len(b)
	}
	if total <= 0 {
		return nil
	}
	stride := 1
	if total > maxPairs {
		stride = (total + maxPairs - 1) / maxPairs
	}
	out := make([]float64, 0, min(total, maxPairs))
	k := 0
	if same {
		for i := 0; i < len(a); i++ {
			for j := i + 1; j < len(a); j++ {
				if k%stride == 0 {
					out = append(out, Euclidean(a[i], a[j]))
				}
				k++
			}
		}
	} else {
		for i := 0; i < len(a); i++ {
			for j := 0; j < len(b); j++ {
				if k%stride == 0 {
					out = append(out, Euclidean(a[i], b[j]))
				}
				k++
			}
		}
	}
	return out
}
