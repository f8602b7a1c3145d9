// Package mlcore defines the shared abstractions used by every ML substrate
// in this repository: datasets of labelled feature vectors, the binary
// Classifier interface, the paper's train/test splitting and class
// re-balancing procedure (§7 "Training and test sets"), and per-sample
// weighting (§8: down-weight old incidents, up-weight past mistakes).
package mlcore

import (
	"fmt"
	"math"
)

// Sample is one labelled example: an incident's feature vector plus its
// ground-truth label (true when the Scout's team was responsible).
type Sample struct {
	X      []float64
	Y      bool
	Weight float64 // training weight; 0 is treated as 1
	// Time is the incident creation time in model hours; used by
	// time-ordered splits and by age-based down-weighting.
	Time float64
	// ID ties the sample back to the incident it was built from.
	ID string
}

// W returns the effective training weight of the sample.
func (s Sample) W() float64 {
	if s.Weight <= 0 {
		return 1
	}
	return s.Weight
}

// Dataset is an ordered collection of samples with named feature columns.
type Dataset struct {
	Features []string // column names; len == dimension
	Samples  []Sample
}

// NewDataset creates an empty dataset over the given feature names.
func NewDataset(features []string) *Dataset {
	return &Dataset{Features: features}
}

// Dim returns the feature dimensionality.
func (d *Dataset) Dim() int { return len(d.Features) }

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Samples) }

// Add appends a sample, validating its dimension.
func (d *Dataset) Add(s Sample) error {
	if len(s.X) != d.Dim() {
		return fmt.Errorf("mlcore: sample dimension %d != dataset dimension %d", len(s.X), d.Dim())
	}
	d.Samples = append(d.Samples, s)
	return nil
}

// MustAdd appends a sample and panics on a dimension mismatch. It is meant
// for construction sites where the dimension is statically correct.
func (d *Dataset) MustAdd(s Sample) {
	if err := d.Add(s); err != nil {
		panic(err)
	}
}

// Positives returns the number of samples with Y == true.
func (d *Dataset) Positives() int {
	n := 0
	for _, s := range d.Samples {
		if s.Y {
			n++
		}
	}
	return n
}

// Clone returns a dataset sharing feature vectors but with an independent
// sample slice, so callers can reweight or subset without aliasing.
func (d *Dataset) Clone() *Dataset {
	c := &Dataset{Features: d.Features, Samples: make([]Sample, len(d.Samples))}
	copy(c.Samples, d.Samples)
	return c
}

// Subset returns a dataset containing the samples at the given indices.
func (d *Dataset) Subset(idx []int) *Dataset {
	out := &Dataset{Features: d.Features, Samples: make([]Sample, 0, len(idx))}
	for _, i := range idx {
		out.Samples = append(out.Samples, d.Samples[i])
	}
	return out
}

// Filter returns a dataset of samples for which keep returns true.
func (d *Dataset) Filter(keep func(Sample) bool) *Dataset {
	out := &Dataset{Features: d.Features}
	for _, s := range d.Samples {
		if keep(s) {
			out.Samples = append(out.Samples, s)
		}
	}
	return out
}

// Classifier is a trained binary model. Predict returns the predicted label
// and a confidence in [0.5, 1] for that label (the paper reports an
// "independent confidence score" with every Scout answer).
type Classifier interface {
	Predict(x []float64) (label bool, confidence float64)
}

// Trainer builds a Classifier from a dataset. All model packages implement
// this so the Scout framework and the experiment harness can swap models
// (§5.3 "Important note").
type Trainer interface {
	Train(train *Dataset) (Classifier, error)
}

// TrainerFunc adapts a plain function to the Trainer interface.
type TrainerFunc func(train *Dataset) (Classifier, error)

// Train implements Trainer.
func (f TrainerFunc) Train(d *Dataset) (Classifier, error) { return f(d) }

// Window returns the samples with Time in [from, to).
func (d *Dataset) Window(from, to float64) *Dataset {
	return d.Filter(func(s Sample) bool { return s.Time >= from && s.Time < to })
}

// AgeDecay multiplies every sample's weight by exp(-age/scale) where age is
// measured from 'now' in the dataset's time unit. This implements the §8
// practice of down-weighting old incidents. scale <= 0 leaves weights
// untouched.
func (d *Dataset) AgeDecay(now, scale float64) {
	if scale <= 0 {
		return
	}
	for i := range d.Samples {
		age := now - d.Samples[i].Time
		if age < 0 {
			age = 0
		}
		d.Samples[i].Weight = d.Samples[i].W() * math.Exp(-age/scale)
	}
}

// Boost multiplies the weight of the samples whose IDs appear in ids by
// factor, implementing the §8 practice of up-weighting previously
// mis-classified incidents in future retraining.
func (d *Dataset) Boost(ids map[string]bool, factor float64) {
	if factor <= 0 {
		return
	}
	for i := range d.Samples {
		if ids[d.Samples[i].ID] {
			d.Samples[i].Weight = d.Samples[i].W() * factor
		}
	}
}

// Standardizer performs per-feature z-score normalization fit on a training
// set; models that are scale-sensitive (KNN, MLP, SVM, QDA) use it so their
// accuracy is not an artifact of feature magnitudes.
type Standardizer struct {
	Mean, Std []float64
}

// FitStandardizer estimates per-feature mean and std from the dataset.
func FitStandardizer(d *Dataset) *Standardizer {
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
func (s *Standardizer) ApplyDataset(d *Dataset) *Dataset {
	out := &Dataset{Features: d.Features, Samples: make([]Sample, len(d.Samples))}
	for i, smp := range d.Samples {
		out.Samples[i] = smp
		out.Samples[i].X = s.Apply(smp.X)
	}
	return out
}
