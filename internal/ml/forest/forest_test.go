package forest

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"scouts/internal/metrics"
	"scouts/internal/ml/mlcore"
)

// xorDataset is a non-linearly-separable problem a single threshold cannot
// solve but a depth-2 tree can.
func xorDataset(n int, noise float64, rng *rand.Rand) *mlcore.Dataset {
	d := mlcore.NewDataset([]string{"x0", "x1", "junk"})
	for i := 0; i < n; i++ {
		a := rng.Float64() < 0.5
		b := rng.Float64() < 0.5
		x0, x1 := 0.0, 0.0
		if a {
			x0 = 1
		}
		if b {
			x1 = 1
		}
		d.MustAdd(mlcore.Sample{
			X: []float64{x0 + rng.NormFloat64()*noise, x1 + rng.NormFloat64()*noise, rng.NormFloat64()},
			Y: a != b,
		})
	}
	return d
}

func TestForestLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	train := xorDataset(600, 0.1, rng)
	test := xorDataset(300, 0.1, rng)
	f, err := Train(train, Params{NumTrees: 40, MaxDepth: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var c metrics.Confusion
	for _, s := range test.Samples {
		pred, conf := f.Predict(s.X)
		if conf < 0.5 || conf > 1 {
			t.Fatalf("confidence %v out of range", conf)
		}
		c.Add(pred, s.Y)
	}
	if c.F1() < 0.95 {
		t.Fatalf("forest should solve noisy XOR, F1 = %v (%v)", c.F1(), c.String())
	}
}

func TestEmptyTrainingSet(t *testing.T) {
	d := mlcore.NewDataset([]string{"a"})
	if _, err := Train(d, Params{}); err != ErrEmptyTrainingSet {
		t.Fatalf("want ErrEmptyTrainingSet, got %v", err)
	}
}

func TestSingleClassDataset(t *testing.T) {
	d := mlcore.NewDataset([]string{"a"})
	for i := 0; i < 20; i++ {
		d.MustAdd(mlcore.Sample{X: []float64{float64(i)}, Y: true})
	}
	f, err := Train(d, Params{NumTrees: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	pred, conf := f.Predict([]float64{3})
	if !pred || conf != 1 {
		t.Fatalf("single-class forest should predict that class with conf 1, got %v %v", pred, conf)
	}
}

func TestDeterministicTraining(t *testing.T) {
	d := xorDataset(200, 0.1, rand.New(rand.NewSource(3)))
	f1, _ := Train(d, Params{NumTrees: 10, Seed: 42})
	f2, _ := Train(d, Params{NumTrees: 10, Seed: 42})
	probe := []float64{0.9, 0.1, 0}
	if f1.PredictProb(probe) != f2.PredictProb(probe) {
		t.Fatal("same seed must give identical forests")
	}
	f3, _ := Train(d, Params{NumTrees: 10, Seed: 43})
	// Different seeds will almost surely differ somewhere over many probes.
	diff := false
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 50 && !diff; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.NormFloat64()}
		diff = f1.PredictProb(x) != f3.PredictProb(x)
	}
	if !diff {
		t.Log("warning: different seeds produced identical predictions on all probes")
	}
}

func TestFeatureImportanceFindsSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := mlcore.NewDataset([]string{"signal", "noise1", "noise2"})
	for i := 0; i < 500; i++ {
		y := rng.Float64() < 0.5
		sig := 0.0
		if y {
			sig = 1
		}
		d.MustAdd(mlcore.Sample{
			X: []float64{sig + rng.NormFloat64()*0.2, rng.NormFloat64(), rng.NormFloat64()},
			Y: y,
		})
	}
	f, err := Train(d, Params{NumTrees: 30, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	imp := f.Importance()
	if imp[0] < 0.7 {
		t.Fatalf("signal importance %v should dominate (noise: %v, %v)", imp[0], imp[1], imp[2])
	}
	sum := imp[0] + imp[1] + imp[2]
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("importance should be normalized, sum = %v", sum)
	}
}

func TestExplainDecomposition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := xorDataset(400, 0.05, rng)
	f, err := Train(d, Params{NumTrees: 25, MaxDepth: 6, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		x := []float64{rng.Float64() * 1.2, rng.Float64() * 1.2, rng.NormFloat64()}
		prior, contribs := f.Explain(x)
		sum := prior
		for _, c := range contribs {
			sum += c.Value
		}
		if math.Abs(sum-f.PredictProb(x)) > 1e-9 {
			t.Fatalf("prior + contributions = %v, prediction = %v", sum, f.PredictProb(x))
		}
	}
	// Contributions must come sorted by |value| descending.
	_, contribs := f.Explain([]float64{1, 0, 0})
	for i := 1; i < len(contribs); i++ {
		if math.Abs(contribs[i].Value) > math.Abs(contribs[i-1].Value)+1e-12 {
			t.Fatal("contributions not sorted by magnitude")
		}
	}
}

func TestWeightedTrainingShiftsDecision(t *testing.T) {
	// Two overlapping classes; up-weighting the positive class should pull
	// the decision boundary to cover more of the overlap.
	build := func(posW float64) *Forest {
		rng := rand.New(rand.NewSource(9))
		d := mlcore.NewDataset([]string{"x"})
		for i := 0; i < 400; i++ {
			y := i%2 == 0
			mu := 0.0
			w := 1.0
			if y {
				mu = 1
				w = posW
			}
			d.MustAdd(mlcore.Sample{X: []float64{mu + rng.NormFloat64()}, Y: y, Weight: w})
		}
		f, err := Train(d, Params{NumTrees: 20, MaxDepth: 4, Seed: 10})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	plain := build(1)
	boosted := build(8)
	// Probe the ambiguous midpoint: the boosted forest should lean positive.
	if boosted.PredictProb([]float64{0.5}) <= plain.PredictProb([]float64{0.5}) {
		t.Fatalf("boosting positives should raise P(+) at the midpoint: plain=%v boosted=%v",
			plain.PredictProb([]float64{0.5}), boosted.PredictProb([]float64{0.5}))
	}
}

func TestMaxDepthRespected(t *testing.T) {
	d := xorDataset(300, 0.3, rand.New(rand.NewSource(11)))
	f := TrainPointer(d, Params{NumTrees: 5, MaxDepth: 3, Seed: 12})
	for i, tr := range f.trees {
		if dep := tr.depth(); dep > 3 {
			t.Fatalf("tree %d depth %d > max 3", i, dep)
		}
	}
}

// Property: probabilities are always within [0, 1] and Predict confidence
// within [0.5, 1] for arbitrary inputs, including out-of-range values.
func TestPredictionBoundsProperty(t *testing.T) {
	d := xorDataset(200, 0.1, rand.New(rand.NewSource(13)))
	f, err := Train(d, Params{NumTrees: 15, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	prop := func(a, b, c float64) bool {
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return v
		}
		x := []float64{clamp(a), clamp(b), clamp(c)}
		p := f.PredictProb(x)
		if p < 0 || p > 1 {
			return false
		}
		_, conf := f.Predict(x)
		return conf >= 0.5 && conf <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTrainerInterface(t *testing.T) {
	tr := Trainer(Params{NumTrees: 5, Seed: 15})
	d := xorDataset(100, 0.1, rand.New(rand.NewSource(16)))
	clf, err := tr.Train(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, conf := clf.Predict([]float64{1, 0, 0}); conf < 0.5 {
		t.Fatal("trainer produced unusable classifier")
	}
}

// depth returns the maximum depth of the tree (root = 0).
func (t *tree) depth() int {
	var walk func(n, d int) int
	walk = func(n, d int) int {
		nd := t.nodes[n]
		if nd.feature < 0 {
			return d
		}
		return max(walk(nd.left, d+1), walk(nd.right, d+1))
	}
	if len(t.nodes) == 0 {
		return 0
	}
	return walk(0, 0)
}
