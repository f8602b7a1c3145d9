// Package boost implements AdaBoost over decision stumps — the boosting
// baseline of Table 4 (F1 = 0.96) and one of the candidate decider models
// for the Scout's model selector (Figure 8).
package boost

import (
	"errors"
	"math"
	"slices"

	"scouts/internal/ml/mlcore"
)

// Params configure AdaBoost.
type Params struct {
	// Rounds is the number of boosting rounds / stumps (default 50).
	Rounds int
}

// stump is a one-split weak learner: predicts +1 when
// polarity*(x[feature] - threshold) > 0.
type stump struct {
	feature   int
	threshold float64
	polarity  float64 // +1 or -1
	alpha     float64 // learner weight
}

// AdaBoost is a trained boosted-stump ensemble.
type AdaBoost struct {
	stumps []stump
}

// ErrEmptyTrainingSet is returned when Train receives no samples.
var ErrEmptyTrainingSet = errors.New("boost: empty training set")

// Train runs AdaBoost.M1 with weighted resampling-free reweighting.
func Train(d *mlcore.Dataset, p Params) (*AdaBoost, error) {
	n := d.Len()
	if n == 0 {
		return nil, ErrEmptyTrainingSet
	}
	if p.Rounds <= 0 {
		p.Rounds = 50
	}
	// Labels in {-1, +1}; initial distribution from sample weights.
	y := make([]float64, n)
	w := make([]float64, n)
	var wSum float64
	for i, s := range d.Samples {
		if s.Y {
			y[i] = 1
		} else {
			y[i] = -1
		}
		w[i] = s.W()
		wSum += w[i]
	}
	for i := range w {
		w[i] /= wSum
	}

	// Pre-sort sample indices per feature once; stump search reuses them.
	dim := d.Dim()
	order := make([][]int, dim)
	for j := 0; j < dim; j++ {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		slices.SortFunc(idx, func(a, b int) int {
			va, vb := d.Samples[a].X[j], d.Samples[b].X[j]
			if va < vb {
				return -1
			}
			if vb < va {
				return 1
			}
			return a - b // total order: equal values scan in sample order
		})
		order[j] = idx
	}

	a := &AdaBoost{}
	pred := make([]float64, n)
	for round := 0; round < p.Rounds; round++ {
		st, werr := bestStump(d, y, w, order)
		if st.feature < 0 || werr >= 0.5 {
			break // no stump better than chance; stop boosting
		}
		perfect := werr < 1e-10
		if perfect {
			werr = 1e-10
		}
		st.alpha = 0.5 * math.Log((1-werr)/werr)
		a.stumps = append(a.stumps, st)
		if perfect {
			break // further rounds are redundant
		}
		// Reweight: increase the weight of mistakes.
		var z float64
		for i := range w {
			pred[i] = st.predict(d.Samples[i].X)
			w[i] *= math.Exp(-st.alpha * y[i] * pred[i])
			z += w[i]
		}
		for i := range w {
			w[i] /= z
		}
	}
	if len(a.stumps) == 0 {
		// Degenerate data (e.g. single class): emit a constant stump that
		// always votes for the majority class.
		var pos float64
		for i := range y {
			if y[i] > 0 {
				pos += w[i]
			}
		}
		pol := -1.0
		if pos >= 0.5 {
			pol = 1.0
		}
		a.stumps = append(a.stumps, stump{feature: 0, threshold: math.Inf(-1), polarity: pol, alpha: 1})
	}
	return a, nil
}

// Trainer adapts Train to the mlcore.Trainer interface.
func Trainer(p Params) mlcore.Trainer {
	return mlcore.TrainerFunc(func(d *mlcore.Dataset) (mlcore.Classifier, error) {
		return Train(d, p)
	})
}

func (s stump) predict(x []float64) float64 {
	if s.polarity*(x[s.feature]-s.threshold) > 0 {
		return 1
	}
	return -1
}

// bestStump scans every feature/threshold/polarity and returns the stump
// with minimal weighted error, plus that error.
func bestStump(d *mlcore.Dataset, y, w []float64, order [][]int) (stump, float64) {
	best := stump{feature: -1}
	bestErr := math.Inf(1)
	for j := range order {
		idx := order[j]
		// errLeftPos: weighted error of the stump "predict +1 when x > t".
		// Start with threshold below everything: predicts +1 for all.
		var errAllPos float64
		for i := range y {
			if y[i] < 0 {
				errAllPos += w[i]
			}
		}
		errPos := errAllPos // polarity +1, threshold = -inf
		// Walk thresholds between consecutive sorted values.
		for k := 0; k < len(idx); k++ {
			i := idx[k]
			// Moving sample i to the "<= threshold" side flips its
			// prediction from +1 to -1 under polarity +1.
			if y[i] > 0 {
				errPos += w[i]
			} else {
				errPos -= w[i]
			}
			if k+1 < len(idx) && d.Samples[idx[k+1]].X[j] == d.Samples[i].X[j] {
				continue
			}
			thr := d.Samples[i].X[j]
			if k+1 < len(idx) {
				thr = (thr + d.Samples[idx[k+1]].X[j]) / 2
			}
			if errPos < bestErr {
				bestErr = errPos
				best = stump{feature: j, threshold: thr, polarity: 1}
			}
			if 1-errPos < bestErr {
				bestErr = 1 - errPos
				best = stump{feature: j, threshold: thr, polarity: -1}
			}
		}
		if errAllPos < bestErr {
			bestErr = errAllPos
			best = stump{feature: j, threshold: math.Inf(-1), polarity: 1}
		}
		if 1-errAllPos < bestErr {
			bestErr = 1 - errAllPos
			best = stump{feature: j, threshold: math.Inf(-1), polarity: -1}
		}
	}
	return best, bestErr
}

// Score returns the signed ensemble margin for x (positive means class
// true), normalized by the total alpha so it lies in [-1, 1].
func (a *AdaBoost) Score(x []float64) float64 {
	var s, total float64
	for _, st := range a.stumps {
		s += st.alpha * st.predict(x)
		total += st.alpha
	}
	if total == 0 {
		return 0
	}
	return s / total
}

// Predict returns the ensemble vote and a confidence in [0.5, 1] derived
// from the normalized margin.
func (a *AdaBoost) Predict(x []float64) (bool, float64) {
	m := a.Score(x)
	conf := 0.5 + math.Abs(m)/2
	if conf > 1 {
		conf = 1
	}
	return m >= 0, conf
}
