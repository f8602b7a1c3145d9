// Package neural implements a one-hidden-layer multilayer perceptron, the
// neural-network baseline of Table 4 (one layer, F1 = 0.93). It is trained
// with mini-batch SGD on the logistic loss, with features standardized by
// training-set statistics.
package neural

import (
	"errors"
	"math"
	"math/rand"

	"scouts/internal/ml/linalg"
	"scouts/internal/ml/mlcore"
)

// Params configure MLP training.
type Params struct {
	// Hidden is the hidden layer width (default 32).
	Hidden int
	// Epochs is the number of passes over the training set (default 60).
	Epochs int
	// LearningRate is the SGD step size (default 0.05).
	LearningRate float64
	// BatchSize is the mini-batch size (default 16).
	BatchSize int
	// L2 is the weight decay coefficient (default 1e-4).
	L2 float64
	// Seed makes initialization and shuffling deterministic.
	Seed int64
}

func (p Params) withDefaults() Params {
	if p.Hidden <= 0 {
		p.Hidden = 32
	}
	if p.Epochs <= 0 {
		p.Epochs = 60
	}
	if p.LearningRate <= 0 {
		p.LearningRate = 0.05
	}
	if p.BatchSize <= 0 {
		p.BatchSize = 16
	}
	if p.L2 < 0 {
		p.L2 = 1e-4
	}
	return p
}

// MLP is a trained one-hidden-layer perceptron with tanh activations and a
// sigmoid output.
type MLP struct {
	std    *linalg.Standardizer
	w1     [][]float64 // hidden x in
	b1     []float64
	w2     []float64 // 1 x hidden
	b2     float64
	hidden int
}

// ErrEmptyTrainingSet is returned when Train receives no samples.
var ErrEmptyTrainingSet = errors.New("neural: empty training set")

// Train fits the network with mini-batch SGD.
func Train(d *mlcore.Dataset, p Params) (*MLP, error) {
	if d.Len() == 0 {
		return nil, ErrEmptyTrainingSet
	}
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(p.Seed))
	std := linalg.FitStandardizer(d)
	work := std.ApplyDataset(d)
	dim := d.Dim()

	m := &MLP{std: std, hidden: p.Hidden}
	m.w1 = make([][]float64, p.Hidden)
	m.b1 = make([]float64, p.Hidden)
	m.w2 = make([]float64, p.Hidden)
	scale := 1 / math.Sqrt(float64(dim))
	for h := 0; h < p.Hidden; h++ {
		m.w1[h] = make([]float64, dim)
		for j := range m.w1[h] {
			m.w1[h][j] = rng.NormFloat64() * scale
		}
		m.w2[h] = rng.NormFloat64() / math.Sqrt(float64(p.Hidden))
	}

	idx := make([]int, work.Len())
	for i := range idx {
		idx[i] = i
	}
	hid := make([]float64, p.Hidden)
	gradW2 := make([]float64, p.Hidden)
	gradB1 := make([]float64, p.Hidden)
	gradW1 := make([][]float64, p.Hidden)
	for h := range gradW1 {
		gradW1[h] = make([]float64, dim)
	}

	for epoch := 0; epoch < p.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		for start := 0; start < len(idx); start += p.BatchSize {
			end := start + p.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			// Zero gradients.
			for h := 0; h < p.Hidden; h++ {
				gradW2[h], gradB1[h] = 0, 0
				for j := range gradW1[h] {
					gradW1[h][j] = 0
				}
			}
			gradB2 := 0.0
			var batchW float64
			for _, i := range idx[start:end] {
				s := work.Samples[i]
				sw := s.W()
				batchW += sw
				// Forward.
				z := m.b2
				for h := 0; h < p.Hidden; h++ {
					a := m.b1[h]
					for j, v := range s.X {
						a += m.w1[h][j] * v
					}
					hid[h] = math.Tanh(a)
					z += m.w2[h] * hid[h]
				}
				pred := sigmoid(z)
				target := 0.0
				if s.Y {
					target = 1
				}
				// Backward: dLoss/dz for logistic loss is (pred - target).
				dz := (pred - target) * sw
				gradB2 += dz
				for h := 0; h < p.Hidden; h++ {
					gradW2[h] += dz * hid[h]
					dh := dz * m.w2[h] * (1 - hid[h]*hid[h])
					gradB1[h] += dh
					for j, v := range s.X {
						gradW1[h][j] += dh * v
					}
				}
			}
			if batchW == 0 {
				continue
			}
			lr := p.LearningRate / batchW
			m.b2 -= lr * gradB2
			for h := 0; h < p.Hidden; h++ {
				m.w2[h] -= lr*gradW2[h] + p.LearningRate*p.L2*m.w2[h]
				m.b1[h] -= lr * gradB1[h]
				for j := range m.w1[h] {
					m.w1[h][j] -= lr*gradW1[h][j] + p.LearningRate*p.L2*m.w1[h][j]
				}
			}
		}
	}
	return m, nil
}

// Trainer adapts Train to the mlcore.Trainer interface.
func Trainer(p Params) mlcore.Trainer {
	return mlcore.TrainerFunc(func(d *mlcore.Dataset) (mlcore.Classifier, error) {
		return Train(d, p)
	})
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// PredictProb returns P(class = true | x).
func (m *MLP) PredictProb(x []float64) float64 {
	x = m.std.Apply(x)
	z := m.b2
	for h := 0; h < m.hidden; h++ {
		a := m.b1[h]
		for j, v := range x {
			a += m.w1[h][j] * v
		}
		z += m.w2[h] * math.Tanh(a)
	}
	return sigmoid(z)
}

// Predict implements mlcore.Classifier.
func (m *MLP) Predict(x []float64) (bool, float64) {
	p := m.PredictProb(x)
	if p >= 0.5 {
		return true, p
	}
	return false, 1 - p
}
