// Package linalg provides small dense-matrix kernels used by the ML
// substrates (covariance estimation, solving linear systems, determinants).
// It is deliberately minimal: the models in this repository work on feature
// vectors with tens to a few hundred dimensions, so simple O(n^3) dense
// algorithms with partial pivoting are both adequate and predictable.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense, row-major matrix of float64 values.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// ErrSingular is returned when a factorization encounters a (numerically)
// singular matrix.
var ErrSingular = errors.New("linalg: matrix is singular")

// New returns a zero matrix with the given shape.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("linalg: FromRows requires a non-empty row set")
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("linalg: ragged rows")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	out := make([]float64, m.Cols)
	copy(out, m.Data[i*m.Cols:(i+1)*m.Cols])
	return out
}

// Mul returns the matrix product m * other.
func (m *Matrix) Mul(other *Matrix) *Matrix {
	if m.Cols != other.Rows {
		panic(fmt.Sprintf("linalg: shape mismatch %dx%d * %dx%d", m.Rows, m.Cols, other.Rows, other.Cols))
	}
	out := New(m.Rows, other.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			base := k * other.Cols
			outBase := i * other.Cols
			for j := 0; j < other.Cols; j++ {
				out.Data[outBase+j] += a * other.Data[base+j]
			}
		}
	}
	return out
}

// MulVec returns the matrix-vector product m * v.
func (m *Matrix) MulVec(v []float64) []float64 {
	if m.Cols != len(v) {
		panic("linalg: MulVec dimension mismatch")
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, a := range row {
			s += a * v[j]
		}
		out[i] = s
	}
	return out
}

// Transpose returns the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// LU holds an LU factorization with partial pivoting: P*A = L*U.
type LU struct {
	lu    *Matrix
	pivot []int
	sign  float64
}

// Factorize computes the LU decomposition of a square matrix.
func Factorize(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: LU of non-square %dx%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	lu := a.Clone()
	pivot := make([]int, n)
	sign := 1.0
	for i := range pivot {
		pivot[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivot: find the largest magnitude in column k at/below row k.
		p, max := k, math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > max {
				p, max = i, v
			}
		}
		if max < 1e-12 {
			return nil, ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				lu.Data[p*n+j], lu.Data[k*n+j] = lu.Data[k*n+j], lu.Data[p*n+j]
			}
			pivot[p], pivot[k] = pivot[k], pivot[p]
			sign = -sign
		}
		inv := 1 / lu.At(k, k)
		for i := k + 1; i < n; i++ {
			f := lu.At(i, k) * inv
			lu.Set(i, k, f)
			if f == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu.Set(i, j, lu.At(i, j)-f*lu.At(k, j))
			}
		}
	}
	return &LU{lu: lu, pivot: pivot, sign: sign}, nil
}

// Solve solves A*x = b for x using the factorization.
func (f *LU) Solve(b []float64) []float64 {
	n := f.lu.Rows
	if len(b) != n {
		panic("linalg: Solve dimension mismatch")
	}
	x := make([]float64, n)
	for i, p := range f.pivot {
		x[i] = b[p]
	}
	// Forward substitution (L has implicit unit diagonal).
	for i := 1; i < n; i++ {
		s := x[i]
		for j := 0; j < i; j++ {
			s -= f.lu.At(i, j) * x[j]
		}
		x[i] = s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= f.lu.At(i, j) * x[j]
		}
		x[i] = s / f.lu.At(i, i)
	}
	return x
}

// LogDet returns log(|det(A)|) and the sign of the determinant.
func (f *LU) LogDet() (logAbs, sign float64) {
	sign = f.sign
	for i := 0; i < f.lu.Rows; i++ {
		d := f.lu.At(i, i)
		if d < 0 {
			sign = -sign
			d = -d
		}
		logAbs += math.Log(d)
	}
	return logAbs, sign
}

// Inverse returns the inverse of a square matrix.
func Inverse(a *Matrix) (*Matrix, error) {
	f, err := Factorize(a)
	if err != nil {
		return nil, err
	}
	n := a.Rows
	inv := New(n, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		col := f.Solve(e)
		for i := 0; i < n; i++ {
			inv.Set(i, j, col[i])
		}
	}
	return inv, nil
}

// Covariance estimates the (optionally regularized) sample covariance of the
// rows of x. reg is added to the diagonal to keep the matrix well-conditioned
// when features are collinear or constant (common with sparse telemetry).
func Covariance(x [][]float64, reg float64) *Matrix {
	if len(x) == 0 {
		panic("linalg: Covariance of empty sample")
	}
	d := len(x[0])
	mean := make([]float64, d)
	for _, row := range x {
		for j, v := range row {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(len(x))
	}
	cov := New(d, d)
	for _, row := range x {
		for i := 0; i < d; i++ {
			di := row[i] - mean[i]
			if di == 0 {
				continue
			}
			for j := i; j < d; j++ {
				cov.Data[i*d+j] += di * (row[j] - mean[j])
			}
		}
	}
	denom := float64(len(x) - 1)
	if denom < 1 {
		denom = 1
	}
	for i := 0; i < d; i++ {
		for j := i; j < d; j++ {
			v := cov.Data[i*d+j] / denom
			cov.Data[i*d+j] = v
			cov.Data[j*d+i] = v
		}
		cov.Data[i*d+i] += reg
	}
	return cov
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dot dimension mismatch")
	}
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// SqDist returns the squared Euclidean distance between two vectors.
func SqDist(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: SqDist dimension mismatch")
	}
	s := 0.0
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s
}
