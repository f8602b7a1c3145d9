package svm

import (
	"math/rand"
	"testing"
)

func cluster(n int, mu, sigma float64, rng *rand.Rand) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = []float64{mu + rng.NormFloat64()*sigma, mu + rng.NormFloat64()*sigma}
	}
	return out
}

func TestRBFDetectsNovelty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	train := cluster(200, 0, 1, rng)
	oc, err := Fit(train, Params{Kernel: RBF, Nu: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Points near the training cloud: mostly inliers.
	in := 0
	for i := 0; i < 100; i++ {
		if oc.Score([]float64{rng.NormFloat64() * 0.5, rng.NormFloat64() * 0.5}) >= 0 {
			in++
		}
	}
	if in < 80 {
		t.Fatalf("only %d/100 central points accepted", in)
	}
	// Far-away points: mostly novel.
	out := 0
	for i := 0; i < 100; i++ {
		if oc.Score([]float64{20 + rng.NormFloat64(), 20 + rng.NormFloat64()}) < 0 {
			out++
		}
	}
	if out < 90 {
		t.Fatalf("only %d/100 distant points rejected", out)
	}
}

func TestNuControlsTrainingRejection(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	train := cluster(200, 0, 1, rng)
	tight, err := Fit(train, Params{Kernel: RBF, Nu: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := Fit(train, Params{Kernel: RBF, Nu: 0.02, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rejTight, rejLoose := 0, 0
	for _, x := range train {
		if tight.Score(x) < 0 {
			rejTight++
		}
		if loose.Score(x) < 0 {
			rejLoose++
		}
	}
	if rejTight <= rejLoose {
		t.Fatalf("higher nu should reject more training points: nu=.5 rejects %d, nu=.02 rejects %d",
			rejTight, rejLoose)
	}
}

// TestKernelAggressiveness reproduces the Appendix B observation: the RBF
// kernel is more "aggressive" at flagging moderately-off points as novel
// than the conservative polynomial kernel.
func TestKernelAggressiveness(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	train := cluster(150, 0, 1, rng)
	rbf, err := Fit(train, Params{Kernel: RBF, Nu: 0.1, Gamma: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	poly, err := Fit(train, Params{Kernel: Poly, Nu: 0.1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	novelRBF, novelPoly := 0, 0
	for i := 0; i < 200; i++ {
		// Moderately displaced points: 3 sigma off-centre.
		x := []float64{3 + rng.NormFloat64()*0.3, 3 + rng.NormFloat64()*0.3}
		if rbf.Score(x) < 0 {
			novelRBF++
		}
		if poly.Score(x) < 0 {
			novelPoly++
		}
	}
	if novelRBF <= novelPoly {
		t.Fatalf("RBF should flag more moderately-off points: rbf=%d poly=%d", novelRBF, novelPoly)
	}
}

func TestFitEmpty(t *testing.T) {
	if _, err := Fit(nil, Params{}); err != ErrEmptyTrainingSet {
		t.Fatalf("want ErrEmptyTrainingSet, got %v", err)
	}
}

func TestPredictInterface(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	oc, err := Fit(cluster(100, 0, 1, rng), Params{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	label, conf := oc.Predict([]float64{0, 0})
	if conf < 0.5 || conf > 1 {
		t.Fatalf("conf %v", conf)
	}
	far, _ := oc.Predict([]float64{50, 50})
	if far && !label {
		t.Fatal("far point inlier while central point novel — inverted decision")
	}
}

func TestDeterministicFit(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	train := cluster(80, 0, 1, rng)
	a, _ := Fit(train, Params{Seed: 9})
	b, _ := Fit(train, Params{Seed: 9})
	probe := []float64{1.5, -0.5}
	if a.Score(probe) != b.Score(probe) {
		t.Fatal("same seed must give identical models")
	}
}
