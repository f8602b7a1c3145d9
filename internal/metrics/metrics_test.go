package metrics

import (
	"math"
	"slices"
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
	v := make([]float64, len(SummaryNames))
	s.VectorInto(v)
	for name, want := range map[string]float64{"mean": 3, "min": 1, "max": 5, "p50": 3} {
		if got := v[slices.Index(SummaryNames, name)]; got != want {
			t.Fatalf("VectorInto: %s = %v, want %v", name, got, want)
		}
	}
}

func TestSummarizeEmpty(t *testing.T) {
	vec := make([]float64, len(SummaryNames))
	SummarizeInPlace(nil).VectorInto(vec)
	for i, v := range vec {
		if v != 0 {
			t.Fatalf("empty summary has non-zero %s = %v", SummaryNames[i], v)
		}
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
