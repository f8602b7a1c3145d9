package discriminant

import (
	"math/rand"
	"testing"

	"scouts/internal/metrics"
	"scouts/internal/ml/mlcore"
)

func TestQDASeparable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := mlcore.NewDataset([]string{"a", "b"})
	for i := 0; i < 600; i++ {
		y := i%2 == 0
		mu := 0.0
		if y {
			mu = 5
		}
		d.MustAdd(mlcore.Sample{X: []float64{mu + rng.NormFloat64(), rng.NormFloat64()}, Y: y})
	}
	timed := withTimes(d)
	train, test := timed.Window(0, 400), timed.Window(400, 600)
	q, err := Train(train, Params{})
	if err != nil {
		t.Fatal(err)
	}
	var c metrics.Confusion
	for _, s := range test.Samples {
		pred, conf := q.Predict(s.X)
		if conf < 0.5 || conf > 1 {
			t.Fatalf("conf %v", conf)
		}
		c.Add(pred, s.Y)
	}
	if c.F1() < 0.95 {
		t.Fatalf("QDA F1 = %v (%s)", c.F1(), c.String())
	}
}

func withTimes(d *mlcore.Dataset) *mlcore.Dataset {
	for i := range d.Samples {
		d.Samples[i].Time = float64(i)
	}
	return d
}

// TestQDAQuadraticBoundary exercises what LDA cannot do: classes with the
// same mean but different covariance (inner blob vs outer shell).
func TestQDAQuadraticBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := mlcore.NewDataset([]string{"a", "b"})
	for i := 0; i < 800; i++ {
		inner := i%2 == 0
		sigma := 4.0
		if inner {
			sigma = 0.5
		}
		d.MustAdd(mlcore.Sample{
			X: []float64{rng.NormFloat64() * sigma, rng.NormFloat64() * sigma},
			Y: inner,
		})
	}
	q, err := Train(d, Params{})
	if err != nil {
		t.Fatal(err)
	}
	var c metrics.Confusion
	for i := 0; i < 400; i++ {
		inner := i%2 == 0
		sigma := 4.0
		if inner {
			sigma = 0.5
		}
		x := []float64{rng.NormFloat64() * sigma, rng.NormFloat64() * sigma}
		pred, _ := q.Predict(x)
		c.Add(pred, inner)
	}
	if c.Accuracy() < 0.8 {
		t.Fatalf("QDA should separate variance-only classes, acc = %v", c.Accuracy())
	}
}

func TestQDAErrors(t *testing.T) {
	if _, err := Train(mlcore.NewDataset([]string{"a"}), Params{}); err != ErrEmptyTrainingSet {
		t.Fatalf("want ErrEmptyTrainingSet, got %v", err)
	}
	d := mlcore.NewDataset([]string{"a"})
	d.MustAdd(mlcore.Sample{X: []float64{1}, Y: false})
	if _, err := Train(d, Params{}); err != ErrSingleClass {
		t.Fatalf("want ErrSingleClass, got %v", err)
	}
}

func TestQDAConstantFeaturesRegularized(t *testing.T) {
	// Constant (zero-variance) columns — ubiquitous in Scout features when
	// a component type is absent — must not make training fail.
	rng := rand.New(rand.NewSource(3))
	d := mlcore.NewDataset([]string{"const", "signal"})
	for i := 0; i < 100; i++ {
		y := i%2 == 0
		mu := 0.0
		if y {
			mu = 4
		}
		d.MustAdd(mlcore.Sample{X: []float64{0, mu + rng.NormFloat64()}, Y: y})
	}
	q, err := Train(d, Params{})
	if err != nil {
		t.Fatal(err)
	}
	pred, _ := q.Predict([]float64{0, 4})
	if !pred {
		t.Fatal("QDA with constant feature mispredicts an easy point")
	}
}
