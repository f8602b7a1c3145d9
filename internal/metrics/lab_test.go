// The figures' empirical CDF and Appendix B's class distances are lab
// code (internal/experiments); their tests run here, beside the quantile
// and summary statistics they are checked alongside.

package metrics_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"scouts/internal/experiments"
	"scouts/internal/metrics"
)

func TestEuclideanKnown(t *testing.T) {
	if d := experiments.Euclidean([]float64{0, 0}, []float64{3, 4}); d != 5 {
		t.Fatalf("d = %v", d)
	}
}

func TestClassDistancesSeparation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var pos, neg [][]float64
	for i := 0; i < 30; i++ {
		pos = append(pos, []float64{10 + rng.NormFloat64()*0.1, 10 + rng.NormFloat64()*0.1})
		neg = append(neg, []float64{rng.NormFloat64() * 0.1, rng.NormFloat64() * 0.1})
	}
	within, withinNeg, cross := experiments.ClassDistances(pos, neg, 0)
	if metrics.Mean(cross) < 5*metrics.Mean(within) || metrics.Mean(cross) < 5*metrics.Mean(withinNeg) {
		t.Fatalf("cross distance %v should dominate within %v / %v",
			metrics.Mean(cross), metrics.Mean(within), metrics.Mean(withinNeg))
	}
}

func TestClassDistancesCapped(t *testing.T) {
	var pts [][]float64
	for i := 0; i < 100; i++ {
		pts = append(pts, []float64{float64(i)})
	}
	within, _, cross := experiments.ClassDistances(pts, pts, 50)
	if len(within) > 50 || len(cross) > 50 {
		t.Fatalf("cap not honored: %d %d", len(within), len(cross))
	}
	if len(within) == 0 || len(cross) == 0 {
		t.Fatal("capped distributions should not be empty")
	}
}

// Property: a CDF's quantile function is monotone non-decreasing in q and
// bounded by the sample's minimum and maximum, up to rounding.
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		sample := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			sample = append(sample, math.Mod(v, 1e9))
		}
		if len(sample) == 0 {
			return true
		}
		c := experiments.NewCDF(sample)
		lo, hi := slices.Min(sample), slices.Max(sample)
		// Interpolation may land an ulp outside its two order statistics.
		tol := 1e-12 * (math.Abs(lo) + math.Abs(hi) + 1)
		prev := lo
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := c.Quantile(q)
			if v < prev-tol || v > hi+tol {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: Euclidean satisfies symmetry and the triangle inequality.
func TestEuclideanMetricProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(16)
		vec := func() []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = r.NormFloat64() * 100
			}
			return v
		}
		a, b, c := vec(), vec(), vec()
		if math.Abs(experiments.Euclidean(a, b)-experiments.Euclidean(b, a)) > 1e-9 {
			return false
		}
		return experiments.Euclidean(a, c) <= experiments.Euclidean(a, b)+experiments.Euclidean(b, c)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
