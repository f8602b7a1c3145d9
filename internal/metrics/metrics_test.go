package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestConfusionBasics(t *testing.T) {
	var c Confusion
	// 8 TP, 2 FP, 85 TN, 5 FN
	for i := 0; i < 8; i++ {
		c.Add(true, true)
	}
	for i := 0; i < 2; i++ {
		c.Add(true, false)
	}
	for i := 0; i < 85; i++ {
		c.Add(false, false)
	}
	for i := 0; i < 5; i++ {
		c.Add(false, true)
	}
	if c.Total() != 100 {
		t.Fatalf("total = %d", c.Total())
	}
	if got, want := c.Precision(), 0.8; math.Abs(got-want) > 1e-12 {
		t.Errorf("precision = %v want %v", got, want)
	}
	if got, want := c.Recall(), 8.0/13.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("recall = %v want %v", got, want)
	}
	if got, want := c.Accuracy(), 0.93; math.Abs(got-want) > 1e-12 {
		t.Errorf("accuracy = %v want %v", got, want)
	}
}

func TestConfusionVacuousCases(t *testing.T) {
	var c Confusion
	if c.Precision() != 1 || c.Recall() != 1 || c.Accuracy() != 1 {
		t.Fatal("empty confusion should be vacuously perfect")
	}
	c.Add(false, false)
	if c.Precision() != 1 {
		t.Fatal("no positive predictions should give precision 1")
	}
	if c.F1() != 1 {
		t.Fatalf("F1 = %v", c.F1())
	}
}

func TestF1HarmonicMean(t *testing.T) {
	c := Confusion{TP: 1, FP: 1, FN: 3}
	p, r := c.Precision(), c.Recall()
	want := 2 * p * r / (p + r)
	if math.Abs(c.F1()-want) > 1e-12 {
		t.Fatalf("F1 = %v want %v", c.F1(), want)
	}
}

func TestCDFAt(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	cases := []struct {
		x    float64
		want float64
	}{{0, 0}, {1, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {10, 1}}
	for _, tc := range cases {
		if got := c.At(tc.x); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("At(%v) = %v want %v", tc.x, got, tc.want)
		}
	}
}

func TestQuantileInterpolation(t *testing.T) {
	s := []float64{0, 10}
	if got := Quantile(s, 0.5); got != 5 {
		t.Fatalf("median = %v", got)
	}
	if got := Quantile(s, 0); got != 0 {
		t.Fatalf("q0 = %v", got)
	}
	if got := Quantile(s, 1); got != 10 {
		t.Fatalf("q1 = %v", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile should be NaN")
	}
}

func TestSummarizeKnown(t *testing.T) {
	s := SummarizeInPlace([]float64{1, 2, 3, 4, 5})
	if s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Fatalf("bad summary: %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("std = %v", s.Std)
	}
	if len(s.Vector()) != len(SummaryNames) {
		t.Fatalf("vector length %d != names %d", len(s.Vector()), len(SummaryNames))
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := SummarizeInPlace(nil)
	for i, v := range s.Vector() {
		if v != 0 {
			t.Fatalf("empty summary has non-zero %s = %v", SummaryNames[i], v)
		}
	}
}

func TestEuclideanKnown(t *testing.T) {
	if d := Euclidean([]float64{0, 0}, []float64{3, 4}); d != 5 {
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
	within, withinNeg, cross := ClassDistances(pos, neg, 0)
	if Mean(cross) < 5*Mean(within) || Mean(cross) < 5*Mean(withinNeg) {
		t.Fatalf("cross distance %v should dominate within %v / %v",
			Mean(cross), Mean(within), Mean(withinNeg))
	}
}

func TestClassDistancesCapped(t *testing.T) {
	var pts [][]float64
	for i := 0; i < 100; i++ {
		pts = append(pts, []float64{float64(i)})
	}
	within, _, cross := ClassDistances(pts, pts, 50)
	if len(within) > 50 || len(cross) > 50 {
		t.Fatalf("cap not honored: %d %d", len(within), len(cross))
	}
	if len(within) == 0 || len(cross) == 0 {
		t.Fatal("capped distributions should not be empty")
	}
}

// Property: a CDF is monotone non-decreasing and bounded by [0,1], and
// Quantile is its (approximate) inverse for in-range probabilities.
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
		c := NewCDF(sample)
		prev := -1.0
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := c.At(c.Quantile(q))
			if v < prev-1e-12 || v < 0 || v > 1 {
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

// Property: SummarizeInPlace percentiles are ordered min <= p1 <= ... <= p99 <= max.
func TestSummarizeOrderingProperty(t *testing.T) {
	f := func(raw []float64) bool {
		sample := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			sample = append(sample, math.Mod(v, 1e6))
		}
		if len(sample) == 0 {
			return true
		}
		s := SummarizeInPlace(sample)
		ladder := []float64{s.Min, s.P1, s.P10, s.P25, s.P50, s.P75, s.P90, s.P99, s.Max}
		return sort.Float64sAreSorted(ladder)
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
		if math.Abs(Euclidean(a, b)-Euclidean(b, a)) > 1e-9 {
			return false
		}
		return Euclidean(a, c) <= Euclidean(a, b)+Euclidean(b, c)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
