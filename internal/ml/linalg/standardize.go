package linalg

import (
	"math"

	"scouts/internal/ml/mlcore"
)

// Standardizer performs per-feature z-score normalization fit on a training
// set; models that are scale-sensitive (KNN, MLP, SVM, QDA) use it so their
// accuracy is not an artifact of feature magnitudes.
type Standardizer struct {
	Mean, Std []float64
}

// FitStandardizer estimates per-feature mean and std from the dataset.
func FitStandardizer(d *mlcore.Dataset) *Standardizer {
	dim := d.Dim()
	s := &Standardizer{Mean: make([]float64, dim), Std: make([]float64, dim)}
	if d.Len() == 0 {
		for j := range s.Std {
			s.Std[j] = 1
		}
		return s
	}
	for _, smp := range d.Samples {
		for j, v := range smp.X {
			s.Mean[j] += v
		}
	}
	for j := range s.Mean {
		s.Mean[j] /= float64(d.Len())
	}
	for _, smp := range d.Samples {
		for j, v := range smp.X {
			dv := v - s.Mean[j]
			s.Std[j] += dv * dv
		}
	}
	for j := range s.Std {
		s.Std[j] = math.Sqrt(s.Std[j] / float64(d.Len()))
		if s.Std[j] < 1e-12 {
			s.Std[j] = 1
		}
	}
	return s
}

// Apply standardizes a single vector (allocating a new one).
func (s *Standardizer) Apply(x []float64) []float64 {
	out := make([]float64, len(x))
	for j, v := range x {
		out[j] = (v - s.Mean[j]) / s.Std[j]
	}
	return out
}

// ApplyDataset returns a standardized copy of the dataset.
func (s *Standardizer) ApplyDataset(d *mlcore.Dataset) *mlcore.Dataset {
	out := &mlcore.Dataset{Features: d.Features, Samples: make([]mlcore.Sample, len(d.Samples))}
	for i, smp := range d.Samples {
		out.Samples[i] = smp
		out.Samples[i].X = s.Apply(smp.X)
	}
	return out
}
