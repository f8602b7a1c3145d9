package boost

import (
	"math/rand"
	"testing"

	"scouts/internal/metrics"
	"scouts/internal/ml/mlcore"
)

func TestAdaBoostLinearSeparable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := mlcore.NewDataset([]string{"a", "noise"})
	for i := 0; i < 400; i++ {
		y := i%2 == 0
		mu := 0.0
		if y {
			mu = 4
		}
		d.MustAdd(mlcore.Sample{X: []float64{mu + rng.NormFloat64(), rng.NormFloat64()}, Y: y})
	}
	a, err := Train(d, Params{Rounds: 20})
	if err != nil {
		t.Fatal(err)
	}
	var c metrics.Confusion
	for i := 0; i < 200; i++ {
		y := i%2 == 0
		mu := 0.0
		if y {
			mu = 4
		}
		x := []float64{mu + rng.NormFloat64(), rng.NormFloat64()}
		pred, conf := a.Predict(x)
		if conf < 0.5 || conf > 1 {
			t.Fatalf("conf %v", conf)
		}
		c.Add(pred, y)
	}
	if c.F1() < 0.95 {
		t.Fatalf("AdaBoost F1 = %v (%s)", c.F1(), c.String())
	}
}

// TestAdaBoostBeatsSingleStump uses a staircase pattern a single stump
// cannot fit but a boosted ensemble can.
func TestAdaBoostBeatsSingleStump(t *testing.T) {
	d := mlcore.NewDataset([]string{"x"})
	// Pattern along x: class flips at 1, 2, 3 → needs >= 3 stumps.
	pts := []struct {
		x float64
		y bool
	}{{0.2, false}, {0.5, false}, {1.2, true}, {1.7, true}, {2.3, false}, {2.6, false}, {3.4, true}, {3.9, true}}
	for rep := 0; rep < 10; rep++ {
		for _, p := range pts {
			d.MustAdd(mlcore.Sample{X: []float64{p.x + float64(rep)*1e-4}, Y: p.y})
		}
	}
	single, err := Train(d, Params{Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Train(d, Params{Rounds: 60})
	if err != nil {
		t.Fatal(err)
	}
	acc := func(a *AdaBoost) float64 {
		var c metrics.Confusion
		for _, p := range pts {
			pred, _ := a.Predict([]float64{p.x})
			c.Add(pred, p.y)
		}
		return c.Accuracy()
	}
	if acc(full) <= acc(single) {
		t.Fatalf("boosting should beat one stump: single %v, full %v (rounds=%d)",
			acc(single), acc(full), len(full.stumps))
	}
	if acc(full) < 0.99 {
		t.Fatalf("boosted ensemble should fit the staircase, acc = %v", acc(full))
	}
}

func TestAdaBoostEmpty(t *testing.T) {
	if _, err := Train(mlcore.NewDataset([]string{"a"}), Params{}); err != ErrEmptyTrainingSet {
		t.Fatalf("want ErrEmptyTrainingSet, got %v", err)
	}
}

func TestAdaBoostSingleClass(t *testing.T) {
	d := mlcore.NewDataset([]string{"a"})
	for i := 0; i < 10; i++ {
		d.MustAdd(mlcore.Sample{X: []float64{float64(i)}, Y: true})
	}
	a, err := Train(d, Params{Rounds: 10})
	if err != nil {
		t.Fatal(err)
	}
	pred, _ := a.Predict([]float64{100})
	if !pred {
		t.Fatal("single-class boosting should predict that class")
	}
}

func TestAdaBoostScoreRange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := mlcore.NewDataset([]string{"a"})
	for i := 0; i < 100; i++ {
		d.MustAdd(mlcore.Sample{X: []float64{rng.NormFloat64()}, Y: rng.Float64() < 0.5})
	}
	a, err := Train(d, Params{Rounds: 30})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		s := a.Score([]float64{rng.NormFloat64() * 10})
		if s < -1-1e-9 || s > 1+1e-9 {
			t.Fatalf("normalized score %v out of [-1, 1]", s)
		}
	}
}

func TestAdaBoostRespectsSampleWeights(t *testing.T) {
	// Conflicting labels at the same x: the heavier side must win.
	d := mlcore.NewDataset([]string{"x"})
	d.MustAdd(mlcore.Sample{X: []float64{0}, Y: true, Weight: 10})
	d.MustAdd(mlcore.Sample{X: []float64{0}, Y: false, Weight: 1})
	d.MustAdd(mlcore.Sample{X: []float64{1}, Y: false, Weight: 1})
	a, err := Train(d, Params{Rounds: 5})
	if err != nil {
		t.Fatal(err)
	}
	pred, _ := a.Predict([]float64{0})
	if !pred {
		t.Fatal("weighted example should dominate the stump choice")
	}
}
