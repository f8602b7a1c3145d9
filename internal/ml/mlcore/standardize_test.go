// The Standardizer the lab's scale-sensitive baselines share lives in
// ml/linalg; its tests run here, over the Dataset it standardizes.

package mlcore_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"scouts/internal/ml/linalg"
	"scouts/internal/ml/mlcore"
)

func TestStandardizer(t *testing.T) {
	d := mlcore.NewDataset([]string{"a", "b"})
	d.MustAdd(mlcore.Sample{X: []float64{0, 100}})
	d.MustAdd(mlcore.Sample{X: []float64{10, 100}})
	d.MustAdd(mlcore.Sample{X: []float64{20, 100}})
	s := linalg.FitStandardizer(d)
	std := s.ApplyDataset(d)
	if math.Abs(std.Samples[0].X[0]+std.Samples[2].X[0]) > 1e-9 {
		t.Fatal("standardized extremes should be symmetric")
	}
	// Constant feature: std forced to 1, so values become 0.
	for _, smp := range std.Samples {
		if smp.X[1] != 0 {
			t.Fatalf("constant feature should standardize to 0, got %v", smp.X[1])
		}
	}
	// Original dataset untouched.
	if d.Samples[0].X[0] != 0 {
		t.Fatal("ApplyDataset must not mutate the input")
	}
}

// Property: standardized features have ~zero mean and unit variance for any
// non-degenerate sample.
func TestStandardizerProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := mlcore.NewDataset([]string{"x"})
		n := 5 + rng.Intn(50)
		for i := 0; i < n; i++ {
			d.MustAdd(mlcore.Sample{X: []float64{rng.NormFloat64()*50 + 10}})
		}
		std := linalg.FitStandardizer(d).ApplyDataset(d)
		mean, varsum := 0.0, 0.0
		for _, s := range std.Samples {
			mean += s.X[0]
		}
		mean /= float64(n)
		for _, s := range std.Samples {
			varsum += (s.X[0] - mean) * (s.X[0] - mean)
		}
		varsum /= float64(n)
		return math.Abs(mean) < 1e-8 && math.Abs(varsum-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
