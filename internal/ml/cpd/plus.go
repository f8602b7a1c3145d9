package cpd

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"scouts/internal/ml/forest"
	"scouts/internal/ml/mlcore"
)

// Input is the monitoring evidence CPD+ examines for one incident: for each
// of the team's monitoring datasets, the time series and/or event counts of
// the components the incident implicates, over the look-back window.
type Input struct {
	// Broad is true when the incident implicates an entire cluster rather
	// than a handful of specific devices. Broad incidents use the learned
	// change-point-combination model; narrow ones use the conservative
	// any-signal rule (§5.2.2).
	Broad bool
	// Pulls lists the evidence in the order it was pulled: one entry per
	// time series and one per event count of an implicated component.
	Pulls []Pull
	// Values holds the points of every series, back to back.
	Values []float64
}

// Pull is one monitoring query's answer in an Input: an event count
// (Event, Count) or a series, the Input's Values[From:To].
type Pull struct {
	Dataset  string
	Event    bool
	Count    float64
	From, To int
}

// series returns a series pull's points, clipped: an append copies them.
func (in *Input) series(pl *Pull) []float64 { return in.Values[pl.From:pl.To:pl.To] }

// PlusParams configure CPD+.
type PlusParams struct {
	// Datasets fixes the universe (and feature order) of monitoring
	// datasets. It must be identical at train and inference time.
	Datasets []string
	// Detector parameterizes the underlying change-point detection.
	Detector Params
	// Forest parameterizes the broad-incident RF ("we 'learn' whether
	// change-points and events are due to failures").
	Forest forest.Params
}

// Plus is a trained CPD+ model.
type Plus struct {
	params PlusParams
	rf     *forest.Forest
}

// ErrNoDatasets is returned when PlusParams.Datasets is empty.
var ErrNoDatasets = errors.New("cpd: PlusParams.Datasets must be non-empty")

// featureNames returns the RF feature layout: for every dataset, the average
// change-point count per series and the average event count per component.
// The names are written into one string and cut from it.
func featureNames(datasets []string) []string {
	const cps, evs = ".avg_changepoints", ".avg_events"
	size := 0
	for _, ds := range datasets {
		size += 2*len(ds) + len(cps) + len(evs)
	}
	var b strings.Builder
	b.Grow(size)
	for _, ds := range datasets {
		b.WriteString(ds)
		b.WriteString(cps)
		b.WriteString(ds)
		b.WriteString(evs)
	}
	all := b.String()
	out := make([]string, 0, 2*len(datasets))
	for _, ds := range datasets {
		n, m := len(ds)+len(cps), len(ds)+len(evs)
		out = append(out, all[:n], all[n:n+m])
		all = all[n+m:]
	}
	return out
}

// Featurize converts an Input into the fixed-length broad-incident vector
// (average change-point and event rates per dataset). Callers that retrain
// frequently cache these vectors: change-point detection is the expensive
// step. Datasets must be sorted (TrainPlusVectors refuses them otherwise).
func (p PlusParams) Featurize(in Input) []float64 {
	return p.FeaturizeInto(nil, in)
}

// FeaturizeInto is Featurize writing into x when it has the room for the
// vector's 2·len(Datasets) cells — a caller featurizing many inputs carves
// their vectors from one block — and into a vector of its own otherwise.
// Returns the filled vector.
func (p PlusParams) FeaturizeInto(x []float64, in Input) []float64 {
	if cap(x) < 2*len(p.Datasets) {
		x = make([]float64, 0, 2*len(p.Datasets))
	}
	x = x[:0]
	for _, ds := range p.Datasets {
		var cps, nSeries, ev, nComp float64
		for i := range in.Pulls {
			pl := &in.Pulls[i]
			switch {
			case pl.Dataset != ds:
			case pl.Event:
				ev += pl.Count
				nComp++
			default:
				cps += float64(countChanges(in.series(pl), p.Detector))
				nSeries++
			}
		}
		avgCP := 0.0
		if nSeries > 0 {
			avgCP = cps / nSeries
		}
		avgEv := 0.0
		if nComp > 0 {
			avgEv = ev / nComp
		}
		x = append(x, avgCP, avgEv)
	}
	return x
}

// TrainPlusVectors fits CPD+ from pre-featurized broad examples (see
// PlusParams.Featurize), growing its broad-incident forest in tr's memory.
// The vectors must have been produced with the same Datasets list, which
// must be sorted, and the same Detector parameters.
func TrainPlusVectors(xs [][]float64, ys []bool, p PlusParams, tr *forest.Trainer) (*Plus, error) {
	if len(p.Datasets) == 0 {
		return nil, ErrNoDatasets
	}
	if !slices.IsSorted(p.Datasets) {
		// The vectors are laid out in this order: sorting would misname them.
		return nil, fmt.Errorf("cpd: PlusParams.Datasets must be sorted, got %v", p.Datasets)
	}
	d := &mlcore.Dataset{Features: featureNames(p.Datasets), Samples: make([]mlcore.Sample, 0, len(xs))}
	for i, x := range xs {
		d.MustAdd(mlcore.Sample{X: x, Y: ys[i]})
	}
	var rf *forest.Forest
	if d.Len() > 0 {
		var err error
		rf, err = tr.Train(d, p.Forest)
		if err != nil {
			return nil, fmt.Errorf("cpd: training broad-incident forest: %w", err)
		}
	}
	return &Plus{params: p, rf: rf}, nil
}

// Parts decomposes the model into its parameters and (possibly nil)
// broad-incident forest, the two halves a Scout snapshot carries.
func (c *Plus) Parts() (PlusParams, *forest.Forest) { return c.params, c.rf }

// PlusFromParts reassembles a model from Parts' output. A broad forest
// must have been trained on the layout the parameters' datasets featurize
// to — the same names, in order — or every broad answer would read a
// vector of another length.
func PlusFromParts(p PlusParams, rf *forest.Forest) (*Plus, error) {
	if rf != nil && !slices.Equal(rf.Features(), featureNames(p.Datasets)) {
		return nil, fmt.Errorf("cpd: broad forest's %d features are not the %d-feature layout of datasets %v",
			len(rf.Features()), 2*len(p.Datasets), p.Datasets)
	}
	return &Plus{params: p, rf: rf}, nil
}

// Predict classifies an incident's monitoring evidence. It returns the
// label (true = "this team is responsible"), a confidence in [0.5, 1], and
// a human-readable explanation — the paper requires every Scout answer to
// carry both (§4).
func (c *Plus) Predict(in Input) (label bool, confidence float64, explanation string) {
	if in.Broad {
		return c.predictBroad(in)
	}
	return c.predictNarrow(in)
}

// predictNarrow applies the conservative any-signal rule of §5.2.2 with
// two noise guards. Monitoring floors are never perfectly silent: a lone
// background syslog line or a single borderline change point (the
// permutation test runs once per series, so false positives accumulate
// across series) must not implicate the team. The rule therefore fires on
// a clear event burst (>= 2 events) or on corroborated distribution
// changes (>= 2 series), which preserves the rule's high recall — real
// faults perturb several signals at once — while keeping its precision
// usable.
func (c *Plus) predictNarrow(in Input) (bool, float64, string) {
	var eventHits, changeHits []string
	var totalEvents float64
	for _, ds := range c.params.Datasets {
		events, series := 0, 0 // the dataset's components so far, by kind
		for i := range in.Pulls {
			switch pl := &in.Pulls[i]; {
			case pl.Dataset != ds:
			case pl.Event:
				totalEvents += pl.Count
				if pl.Count > 0 {
					eventHits = append(eventHits, fmt.Sprintf("%s: %g events on component #%d", ds, pl.Count, events))
				}
				events++
			default:
				if HasChange(in.series(pl), c.params.Detector) {
					changeHits = append(changeHits, fmt.Sprintf("%s: distribution change on component #%d", ds, series))
				}
				series++
			}
		}
	}
	if totalEvents >= 2 || len(changeHits) >= 2 {
		hits := append(eventHits, changeHits...)
		return true, 0.9, "conservative rule fired: " + strings.Join(hits, "; ")
	}
	if totalEvents >= 1 && len(changeHits) >= 1 {
		hits := append(eventHits, changeHits...)
		return true, 0.8, "conservative rule fired (event corroborated by a change point): " + strings.Join(hits, "; ")
	}
	return false, 0.75, "conservative rule: no corroborated events or change points on implicated devices"
}

// predictBroad uses the learned RF over per-dataset change-point and event
// rates. Without any broad training data it degrades to the narrow rule.
func (c *Plus) predictBroad(in Input) (bool, float64, string) {
	if c.rf == nil {
		label, conf, expl := c.predictNarrow(in)
		return label, conf, "no broad-incident model trained; " + expl
	}
	return c.PredictVector(c.params.Featurize(in))
}

// Featurize is PlusParams.Featurize under the model's own parameters.
func (c *Plus) Featurize(in Input) []float64 { return c.params.Featurize(in) }

// PredictVector is the tail of every broad answer: it classifies a
// featurized broad incident (see Featurize). Callers with cached vectors
// use it to skip re-running change-point detection. The model must have a
// broad forest (Parts reports it); without one only Predict can answer —
// through the narrow rule, which reads the Input.
func (c *Plus) PredictVector(x []float64) (bool, float64, string) {
	label, conf := c.rf.Predict(x)
	const model = "cluster-level change-point model"
	var arr [256]byte
	expl := append(arr[:0], model+"; top signals: "...)
	n := len(expl)
	if expl = c.rf.AppendTopSignals(expl, x, 3, nil); len(expl) == n {
		expl = expl[:len(model)]
	}
	return label, conf, string(expl)
}
