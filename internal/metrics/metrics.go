// Package metrics implements the evaluation metrics used throughout the
// paper: precision/recall/F1 for binary classifiers (§7 "Accuracy Metrics"),
// quantiles, and the percentile summaries the Scout's features are made of
// (§5.2). The figures' empirical CDFs and Appendix B's Euclidean
// class-distance analyses are lab code (internal/experiments).
package metrics

import (
	"fmt"
	"math"

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

// Quantile computes the q-th quantile of an ALREADY SORTED sample with
// linear interpolation.
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

// SummaryNames lists the feature names of SummaryStats in VectorInto order.
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

// VectorInto writes the statistics into dst (len(SummaryNames) cells) in
// SummaryNames order — the allocation-free form the featurization hot path
// uses to fill pooled feature vectors in place.
func (s SummaryStats) VectorInto(dst []float64) {
	dst[0], dst[1], dst[2], dst[3] = s.Mean, s.Std, s.Min, s.Max
	dst[4], dst[5], dst[6], dst[7] = s.P1, s.P10, s.P25, s.P50
	dst[8], dst[9], dst[10] = s.P75, s.P90, s.P99
}
