package mlcore

import (
	"slices"

	"scouts/internal/parallel"
)

// Col materializes one feature column of the dataset (cols[i] =
// Samples[i].X[f]). It allocates a fresh slice on every call; training
// kernels that need the column-major view repeatedly should build a
// Columns once instead.
func (d *Dataset) Col(f int) []float64 {
	out := make([]float64, len(d.Samples))
	for i, s := range d.Samples {
		out[i] = s.X[f]
	}
	return out
}

// Columns is an immutable column-major view of a dataset plus, per
// feature, the rows in presorted order — the one-time O(dim · n log n)
// presort after which CART split finding never compares values to order a
// node: it expands the order through the node's row multiplicities, O(n)
// per (node, sampled feature). It is built once per training set and
// shared read-only by every tree worker.
//
// Row indices are int32: a presorted view stores dim·n of them, and a
// training set beyond 2^31 rows would not fit in memory long before the
// index type mattered.
type Columns struct {
	features []string
	n        int
	vals     []float64 // feature f's column at [f·n, (f+1)·n): vals[f·n+i] == Samples[i].X[f]
	w        []float64 // effective weights (Sample.W())
	y        []bool
	uniform  bool    // every weight is exactly 1 (the common case)
	order    []int32 // feature f's presort order at [f·n, (f+1)·n)
}

// NewColumns builds the column-major presorted view of d, fanning the
// per-feature sorts across up to `workers` goroutines (0 selects
// GOMAXPROCS). The result is deterministic at any worker count: each
// feature's order is an independent total order (value ascending, NaNs
// first, ties broken by row index).
func NewColumns(d *Dataset, workers int) *Columns {
	dim, n := d.Dim(), d.Len()
	c := &Columns{
		features: d.Features,
		n:        n,
		vals:     make([]float64, dim*n),
		w:        make([]float64, n),
		y:        make([]bool, n),
		order:    make([]int32, dim*n),
	}
	c.uniform = true
	for i, s := range d.Samples {
		c.w[i] = s.W()
		c.y[i] = s.Y
		if c.w[i] != 1 {
			c.uniform = false
		}
	}
	parallel.For(workers, dim, func(f int) {
		col := c.Col(f)
		for i, s := range d.Samples {
			col[i] = s.X[f]
		}
		ord := c.Order(f)
		for i := range ord {
			ord[i] = int32(i)
		}
		slices.SortFunc(ord, func(a, b int32) int {
			va, vb := col[a], col[b]
			if va < vb {
				return -1
			}
			if vb < va {
				return 1
			}
			// Neither compares below the other: equal values, or a NaN is
			// involved. NaNs sort first so the comparator stays a total
			// order; remaining ties break by row index.
			if an, bn := va != va, vb != vb; an != bn {
				if an {
					return -1
				}
				return 1
			}
			return int(a - b)
		})
	})
	return c
}

// Dim returns the feature dimensionality.
func (c *Columns) Dim() int { return len(c.features) }

// Len returns the number of rows.
func (c *Columns) Len() int { return c.n }

// Features returns the feature names (aliased, read-only).
func (c *Columns) Features() []string { return c.features }

// Col returns feature f's value column (aliased, read-only).
func (c *Columns) Col(f int) []float64 { return c.vals[f*c.n : (f+1)*c.n] }

// Order returns the rows sorted ascending by feature f (aliased,
// read-only): value order, NaNs first, ties by row index.
func (c *Columns) Order(f int) []int32 { return c.order[f*c.n : (f+1)*c.n] }

// Weights returns the effective per-row weights (aliased, read-only).
func (c *Columns) Weights() []float64 { return c.w }

// Uniform reports whether every weight is exactly 1. Training kernels use
// it to replace weight-sum accumulation with integer counting — exact,
// since float64 sums of 1.0 are exact integers far beyond any dataset
// size, so the fast path is bit-identical to the accumulating one.
func (c *Columns) Uniform() bool { return c.uniform }

// Labels returns the per-row labels (aliased, read-only).
func (c *Columns) Labels() []bool { return c.y }
