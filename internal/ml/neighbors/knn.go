// Package neighbors implements a k-nearest-neighbours classifier, one of
// the alternative supervised models the paper compares against the random
// forest in Table 4 (KNN reaches F1 = 0.95 on the PhyNet incident task).
package neighbors

import (
	"errors"
	"slices"

	"scouts/internal/ml/linalg"
	"scouts/internal/ml/mlcore"
)

// Params configure KNN.
type Params struct {
	// K is the neighbourhood size (default 5).
	K int
	// Standardize z-scores features using training statistics (default on
	// via DefaultParams; distance-based models are scale-sensitive).
	Standardize bool
}

// DefaultParams mirror scikit-learn's defaults used by the paper ([8]).
var DefaultParams = Params{K: 5, Standardize: true}

// KNN is a trained k-nearest-neighbours classifier.
type KNN struct {
	params Params
	std    *linalg.Standardizer
	xs     [][]float64
	ys     []bool
	ws     []float64
}

// ErrEmptyTrainingSet is returned when Train receives no samples.
var ErrEmptyTrainingSet = errors.New("neighbors: empty training set")

// Train memorizes the (standardized) training set.
func Train(d *mlcore.Dataset, p Params) (*KNN, error) {
	if d.Len() == 0 {
		return nil, ErrEmptyTrainingSet
	}
	if p.K <= 0 {
		p.K = DefaultParams.K
	}
	k := &KNN{params: p}
	work := d
	if p.Standardize {
		k.std = linalg.FitStandardizer(d)
		work = k.std.ApplyDataset(d)
	}
	for _, s := range work.Samples {
		k.xs = append(k.xs, s.X)
		k.ys = append(k.ys, s.Y)
		k.ws = append(k.ws, s.W())
	}
	return k, nil
}

// Trainer adapts Train to the mlcore.Trainer interface.
func Trainer(p Params) mlcore.Trainer {
	return mlcore.TrainerFunc(func(d *mlcore.Dataset) (mlcore.Classifier, error) {
		return Train(d, p)
	})
}

// Predict returns the weighted majority label among the K nearest training
// samples and the winning weight fraction as confidence.
func (k *KNN) Predict(x []float64) (bool, float64) {
	if k.std != nil {
		x = k.std.Apply(x)
	}
	type cand struct {
		d float64
		i int
	}
	cands := make([]cand, len(k.xs))
	for i, tx := range k.xs {
		cands[i] = cand{d: linalg.SqDist(x, tx), i: i}
	}
	slices.SortFunc(cands, func(a, b cand) int {
		if a.d < b.d {
			return -1
		}
		if b.d < a.d {
			return 1
		}
		return a.i - b.i // total order: equidistant neighbors rank by index
	})
	kk := k.params.K
	if kk > len(cands) {
		kk = len(cands)
	}
	var pos, total float64
	for _, c := range cands[:kk] {
		w := k.ws[c.i]
		total += w
		if k.ys[c.i] {
			pos += w
		}
	}
	p := pos / total
	if p >= 0.5 {
		return true, p
	}
	return false, 1 - p
}
