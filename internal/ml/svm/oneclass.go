// Package svm implements a ν-one-class support vector machine — the
// unsupervised novelty detector the paper evaluates both as an alternative
// anomaly model (§5.2.2 footnote: 86% precision / 98% recall) and as a
// candidate decider inside the model selector, where the kernel choice
// matters: a "conservative" polynomial kernel labels most incidents as old,
// an "aggressive" RBF kernel flags many as new (Appendix B, Figure 8).
//
// The dual problem — minimize (1/2) αᵀKα subject to 0 ≤ αᵢ ≤ 1/(νn) and
// Σαᵢ = 1 — is solved with an SMO-style pairwise coordinate descent that
// preserves the equality constraint exactly.
package svm

import (
	"errors"
	"math"
	"math/rand"
	"sort"

	"scouts/internal/ml/linalg"
	"scouts/internal/ml/mlcore"
)

// KernelKind selects the kernel function.
type KernelKind int

const (
	// RBF is the radial basis function kernel exp(-gamma*||x-y||^2). With
	// a tight decision boundary it behaves "aggressively": points off the
	// training manifold are readily declared novel.
	RBF KernelKind = iota
	// Poly is the polynomial kernel (gamma*<x,y> + coef0)^degree, the
	// "conservative" choice of the paper's Appendix B.
	Poly
)

// Params configure the one-class SVM.
type Params struct {
	Kernel KernelKind
	// Nu bounds the fraction of training points treated as outliers
	// (default 0.1).
	Nu float64
	// Gamma is the kernel width (default 1/dim).
	Gamma float64
	// Degree and Coef0 apply to the polynomial kernel (defaults 3 and 1).
	Degree int
	Coef0  float64
	// Iters is the number of SMO pair updates (default 200*n).
	Iters int
	// Seed drives pair selection.
	Seed int64
}

// OneClass is a trained one-class SVM.
type OneClass struct {
	params Params
	std    *linalg.Standardizer
	sv     [][]float64
	alpha  []float64
	rho    float64
}

// ErrEmptyTrainingSet is returned when Fit receives no samples.
var ErrEmptyTrainingSet = errors.New("svm: empty training set")

// Fit trains the one-class SVM on the feature vectors xs (the single,
// "normal" class; there are no labels).
func Fit(xs [][]float64, p Params) (*OneClass, error) {
	n := len(xs)
	if n == 0 {
		return nil, ErrEmptyTrainingSet
	}
	if p.Nu <= 0 || p.Nu > 1 {
		p.Nu = 0.1
	}
	dim := len(xs[0])
	if p.Gamma <= 0 {
		p.Gamma = 1 / float64(dim)
	}
	if p.Degree <= 0 {
		p.Degree = 3
	}
	if p.Kernel == Poly && p.Coef0 == 0 {
		p.Coef0 = 1
	}
	if p.Iters <= 0 {
		p.Iters = 200 * n
	}

	// Standardize internally; kernel scales assume unit-ish features.
	d := mlcore.NewDataset(make([]string, dim))
	for _, x := range xs {
		d.MustAdd(mlcore.Sample{X: x})
	}
	std := linalg.FitStandardizer(d)
	work := make([][]float64, n)
	for i, x := range xs {
		work[i] = std.Apply(x)
	}

	oc := &OneClass{params: p, std: std, sv: work}
	// Precompute the kernel matrix (n is modest in the Scout setting: the
	// selector trains on at most a few thousand incidents).
	k := make([][]float64, n)
	for i := range k {
		k[i] = make([]float64, n)
		for j := 0; j <= i; j++ {
			v := oc.kernel(work[i], work[j])
			k[i][j] = v
			k[j][i] = v
		}
	}

	// Feasible start: α uniform at 1/n (satisfies 0 ≤ α ≤ 1/(νn) since
	// ν ≤ 1, and Σα = 1).
	c := 1 / (p.Nu * float64(n))
	alpha := make([]float64, n)
	for i := range alpha {
		alpha[i] = 1 / float64(n)
	}
	grad := make([]float64, n) // gradient of (1/2)αᵀKα is Kα
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			grad[i] += k[i][j] * alpha[j]
		}
	}

	rng := rand.New(rand.NewSource(p.Seed))
	for it := 0; it < p.Iters; it++ {
		i := rng.Intn(n)
		j := rng.Intn(n)
		if i == j {
			continue
		}
		// Optimize α_i, α_j keeping α_i + α_j = s constant:
		// minimize over t where α_i' = α_i + t, α_j' = α_j − t.
		// d/dt = grad_i − grad_j + t*(K_ii + K_jj − 2K_ij) = 0.
		denom := k[i][i] + k[j][j] - 2*k[i][j]
		if denom < 1e-12 {
			continue
		}
		t := (grad[j] - grad[i]) / denom
		// Clip to the box.
		lo := math.Max(-alpha[i], alpha[j]-c)
		hi := math.Min(c-alpha[i], alpha[j])
		if t < lo {
			t = lo
		}
		if t > hi {
			t = hi
		}
		if t == 0 {
			continue
		}
		alpha[i] += t
		alpha[j] -= t
		for m := 0; m < n; m++ {
			grad[m] += t * (k[m][i] - k[m][j])
		}
	}
	oc.alpha = alpha

	// ρ: decision offset such that free support vectors (0 < α < C) sit on
	// the boundary f(x) = Σ α_i k(x_i, x) − ρ = 0. Use their mean score;
	// fall back to the ν-quantile of training scores if none are free.
	var free []float64
	scores := make([]float64, n)
	for m := 0; m < n; m++ {
		scores[m] = grad[m] // grad_m == Σ_j K_mj α_j == Σ α_j k(x_j, x_m)
		if alpha[m] > 1e-8 && alpha[m] < c-1e-8 {
			free = append(free, scores[m])
		}
	}
	if len(free) > 0 {
		sum := 0.0
		for _, v := range free {
			sum += v
		}
		oc.rho = sum / float64(len(free))
	} else {
		sorted := append([]float64(nil), scores...)
		sort.Float64s(sorted)
		idx := int(p.Nu * float64(n))
		if idx >= n {
			idx = n - 1
		}
		oc.rho = sorted[idx]
	}
	return oc, nil
}

func (oc *OneClass) kernel(a, b []float64) float64 {
	switch oc.params.Kernel {
	case Poly:
		return math.Pow(oc.params.Gamma*linalg.Dot(a, b)+oc.params.Coef0, float64(oc.params.Degree))
	default:
		return math.Exp(-oc.params.Gamma * linalg.SqDist(a, b))
	}
}

// Score returns the signed decision value f(x); negative means novel.
func (oc *OneClass) Score(x []float64) float64 {
	x = oc.std.Apply(x)
	s := -oc.rho
	for i, sv := range oc.sv {
		if oc.alpha[i] <= 1e-10 {
			continue
		}
		s += oc.alpha[i] * oc.kernel(sv, x)
	}
	return s
}

// Predict implements mlcore.Classifier with the convention label == true
// meaning "inlier / known". Confidence is a squashed margin.
func (oc *OneClass) Predict(x []float64) (bool, float64) {
	s := oc.Score(x)
	conf := 0.5 + 0.5*math.Tanh(math.Abs(s)*10)
	return s >= 0, conf
}
