package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMulIdentity(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 10}})
	got := a.Mul(identity(3))
	for i := range a.Data {
		if got.Data[i] != a.Data[i] {
			t.Fatalf("A*I != A at %d: got %v want %v", i, got.Data[i], a.Data[i])
		}
	}
}

func TestMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	got := a.Mul(b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if got.At(i, j) != want[i][j] {
				t.Errorf("(%d,%d): got %v want %v", i, j, got.At(i, j), want[i][j])
			}
		}
	}
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got := a.MulVec([]float64{1, 0, -1})
	if got[0] != -2 || got[1] != -2 {
		t.Fatalf("MulVec: got %v", got)
	}
}

func TestTranspose(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.Transpose()
	if at.Rows != 3 || at.Cols != 2 {
		t.Fatalf("shape: %dx%d", at.Rows, at.Cols)
	}
	if at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("transpose values wrong: %+v", at)
	}
}

func TestSolveKnownSystem(t *testing.T) {
	a := FromRows([][]float64{{2, 1, -1}, {-3, -1, 2}, {-2, 1, 2}})
	f, err := Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	x := f.Solve([]float64{8, -11, -3})
	want := []float64{2, 3, -1}
	for i := range want {
		if !almostEq(x[i], want[i], 1e-9) {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestSingularDetected(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Factorize(a); err != ErrSingular {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
}

func TestInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(6)
		a := New(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		// Diagonal dominance keeps the random matrix well-conditioned.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n))
		}
		inv, err := Inverse(a)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		prod := a.Mul(inv)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if !almostEq(prod.At(i, j), want, 1e-8) {
					t.Fatalf("trial %d: (A*A^-1)[%d][%d] = %v", trial, i, j, prod.At(i, j))
				}
			}
		}
	}
}

func TestLogDet(t *testing.T) {
	a := FromRows([][]float64{{4, 0}, {0, 0.25}})
	f, err := Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	logAbs, sign := f.LogDet()
	if !almostEq(logAbs, 0, 1e-12) || sign != 1 {
		t.Fatalf("LogDet = (%v, %v), want (0, 1)", logAbs, sign)
	}
	b := FromRows([][]float64{{0, 1}, {1, 0}}) // det = -1
	fb, err := Factorize(b)
	if err != nil {
		t.Fatal(err)
	}
	logAbs, sign = fb.LogDet()
	if !almostEq(logAbs, 0, 1e-12) || sign != -1 {
		t.Fatalf("LogDet = (%v, %v), want (0, -1)", logAbs, sign)
	}
}

func TestCovarianceDiagonal(t *testing.T) {
	// Two independent columns with known variance.
	x := [][]float64{{1, 10}, {2, 10}, {3, 10}, {4, 10}, {5, 10}}
	cov := Covariance(x, 0)
	if !almostEq(cov.At(0, 0), 2.5, 1e-12) {
		t.Errorf("var(col0) = %v, want 2.5", cov.At(0, 0))
	}
	if !almostEq(cov.At(1, 1), 0, 1e-12) {
		t.Errorf("var(col1) = %v, want 0", cov.At(1, 1))
	}
	if !almostEq(cov.At(0, 1), 0, 1e-12) {
		t.Errorf("cov(0,1) = %v, want 0", cov.At(0, 1))
	}
}

func TestCovarianceRegularization(t *testing.T) {
	x := [][]float64{{1, 1}, {1, 1}, {1, 1}}
	cov := Covariance(x, 0.5)
	if !almostEq(cov.At(0, 0), 0.5, 1e-12) || !almostEq(cov.At(1, 1), 0.5, 1e-12) {
		t.Fatalf("regularized diagonal wrong: %v %v", cov.At(0, 0), cov.At(1, 1))
	}
}

func TestCovarianceSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := make([][]float64, 40)
	for i := range x {
		x[i] = []float64{rng.NormFloat64(), rng.NormFloat64() * 3, rng.Float64()}
	}
	cov := Covariance(x, 0)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if cov.At(i, j) != cov.At(j, i) {
				t.Fatalf("asymmetric covariance at (%d,%d)", i, j)
			}
		}
	}
}

// Property: for any vectors, Dot(a,a) == SqDist(a, zero) and SqDist is
// symmetric and non-negative.
func TestSqDistProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 || len(raw) > 64 {
			return true
		}
		a := make([]float64, len(raw))
		b := make([]float64, len(raw))
		for i, v := range raw {
			// Clamp to a sane range so squares do not overflow.
			v = math.Mod(v, 1e6)
			if math.IsNaN(v) {
				v = 0
			}
			a[i] = v
			b[i] = -v / 2
		}
		zero := make([]float64, len(a))
		if !almostEq(Dot(a, a), SqDist(a, zero), 1e-6*(1+math.Abs(Dot(a, a)))) {
			return false
		}
		if SqDist(a, b) < 0 {
			return false
		}
		return almostEq(SqDist(a, b), SqDist(b, a), 1e-9*(1+SqDist(a, b)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: solving A*x=b then multiplying recovers b for diagonally
// dominant random matrices.
func TestSolveRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed ^ rng.Int63()))
		n := 1 + r.Intn(8)
		a := New(n, n)
		for i := range a.Data {
			a.Data[i] = r.NormFloat64()
		}
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(2*n))
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64() * 10
		}
		fact, err := Factorize(a)
		if err != nil {
			return false
		}
		x := fact.Solve(b)
		back := a.MulVec(x)
		for i := range b {
			if !almostEq(back[i], b[i], 1e-7*(1+math.Abs(b[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// identity returns the n x n identity matrix.
func identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}
