package cpd

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// Detect returns the indices of statistically significant change points in
// the series, sorted ascending. An index i means the distribution of
// series[:i] differs from series[i:]. Only tests list the change points;
// CPD+ counts them (countChanges).
func Detect(series []float64, p Params) []int {
	p = p.withDefaults()
	k := acquire(len(series), p.Seed)
	k.points = k.points[:0]
	k.segment(series, 0, p)
	var out []int
	if len(k.points) > 0 {
		out = slices.Clone(k.points)
		sort.Ints(out)
	}
	kernels.Put(k)
	return out
}

func step(n1, n2 int, mu1, mu2, sigma float64, rng *rand.Rand) []float64 {
	out := make([]float64, 0, n1+n2)
	for i := 0; i < n1; i++ {
		out = append(out, mu1+rng.NormFloat64()*sigma)
	}
	for i := 0; i < n2; i++ {
		out = append(out, mu2+rng.NormFloat64()*sigma)
	}
	return out
}

func TestDetectsMeanShift(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := step(40, 40, 0, 5, 1, rng)
	cps := Detect(s, Params{Seed: 1})
	if len(cps) == 0 {
		t.Fatal("missed an obvious mean shift")
	}
	if math.Abs(float64(cps[0])-40) > 4 {
		t.Fatalf("change point at %d, want ~40", cps[0])
	}
}

func TestNoChangeOnStationary(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	falsePositives := 0
	for trial := 0; trial < 20; trial++ {
		s := step(80, 0, 0, 0, 1, rng)
		if len(Detect(s, Params{Seed: int64(trial)})) > 0 {
			falsePositives++
		}
	}
	// At alpha = 0.05 a few false positives are expected; many indicate a
	// broken test.
	if falsePositives > 4 {
		t.Fatalf("%d/20 false positives on stationary noise", falsePositives)
	}
}

func TestDetectsVarianceShift(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := make([]float64, 0, 120)
	for i := 0; i < 60; i++ {
		s = append(s, rng.NormFloat64()*0.2)
	}
	for i := 0; i < 60; i++ {
		s = append(s, rng.NormFloat64()*4)
	}
	cps := Detect(s, Params{Seed: 4})
	if len(cps) == 0 {
		t.Fatal("energy statistic should catch a pure variance shift")
	}
}

func TestDetectsMultipleChangePoints(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var s []float64
	s = append(s, step(40, 40, 0, 6, 0.5, rng)...)
	s = append(s, step(0, 40, 0, -6, 0.5, rng)...)
	cps := Detect(s, Params{Seed: 6})
	if len(cps) < 2 {
		t.Fatalf("want >= 2 change points, got %v", cps)
	}
}

func TestShortSeriesSafe(t *testing.T) {
	for n := 0; n < 10; n++ {
		s := make([]float64, n)
		if got := Detect(s, Params{Seed: 7}); len(got) != 0 {
			t.Fatalf("short series (n=%d) should yield no change points, got %v", n, got)
		}
	}
}

func TestHasChangeAgreesWithDetect(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	shifted := step(30, 30, 0, 8, 0.5, rng)
	if !HasChange(shifted, Params{Seed: 9}) {
		t.Fatal("HasChange missed a strong shift")
	}
	flat := step(60, 0, 0, 0, 0.5, rng)
	if HasChange(flat, Params{Seed: 9}) && len(Detect(flat, Params{Seed: 9})) == 0 {
		t.Fatal("HasChange fired where Detect did not")
	}
}

func TestEnergyStatProperties(t *testing.T) {
	// Identical samples: statistic ~ 0. Separated samples: large.
	x := []float64{1, 2, 3, 4, 5}
	if q := energyStat(x, x); q > 1e-9 {
		t.Fatalf("E(x,x) = %v, want ~0", q)
	}
	y := []float64{101, 102, 103, 104, 105}
	if q := energyStat(x, y); q < 100 {
		t.Fatalf("E(x, x+100) = %v, want large", q)
	}
}

func TestMeanWithinAbsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(20)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * 10
		}
		brute := 0.0
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				brute += math.Abs(x[i] - x[j])
			}
		}
		brute /= float64(n * n)
		if got := meanWithinAbs(x); math.Abs(got-brute) > 1e-9*(1+brute) {
			t.Fatalf("meanWithinAbs = %v, brute = %v", got, brute)
		}
	}
}

func TestMeanCrossAbsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n, m := 1+rng.Intn(15), 1+rng.Intn(15)
		x := make([]float64, n)
		y := make([]float64, m)
		for i := range x {
			x[i] = rng.NormFloat64() * 5
		}
		for i := range y {
			y[i] = rng.NormFloat64()*5 + 1
		}
		brute := 0.0
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				brute += math.Abs(x[i] - y[j])
			}
		}
		brute /= float64(n * m)
		if got := meanCrossAbs(x, y); math.Abs(got-brute) > 1e-9*(1+brute) {
			t.Fatalf("meanCrossAbs = %v, brute = %v", got, brute)
		}
	}
}

// Property: the energy statistic is symmetric and non-negative for
// separated samples; Detect is deterministic under a fixed seed.
func TestEnergySymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m := 2+rng.Intn(20), 2+rng.Intn(20)
		x := make([]float64, n)
		y := make([]float64, m)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range y {
			y[i] = rng.NormFloat64() + 3
		}
		a, b := energyStat(x, y), energyStat(y, x)
		return math.Abs(a-b) < 1e-9*(1+math.Abs(a)) && a >= -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDetectDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	s := step(50, 50, 0, 3, 1, rng)
	a := Detect(s, Params{Seed: 99})
	b := Detect(s, Params{Seed: 99})
	if len(a) != len(b) {
		t.Fatal("same seed, different results")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different change points")
		}
	}
}
