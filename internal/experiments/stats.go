package experiments

import (
	"math"

	"scouts/internal/floatsort"
	"scouts/internal/metrics"
)

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

// Quantile returns the q-th sample quantile, q in [0, 1], with linear
// interpolation between order statistics.
func (c *CDF) Quantile(q float64) float64 {
	return metrics.Quantile(c.sorted, q)
}

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

// Euclidean returns the Euclidean distance between two feature vectors.
func Euclidean(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("experiments: Euclidean dimension mismatch")
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
