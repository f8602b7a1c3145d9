package cpd

import (
	"errors"
	"fmt"
	"sort"
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
	// Series maps dataset name -> one time series per implicated component.
	Series map[string][][]float64
	// Events maps dataset name -> per-implicated-component event counts.
	Events map[string][]float64
}

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
func featureNames(datasets []string) []string {
	out := make([]string, 0, 2*len(datasets))
	for _, ds := range datasets {
		out = append(out, ds+".avg_changepoints", ds+".avg_events")
	}
	return out
}

// Featurize converts an Input into the fixed-length broad-incident vector
// (average change-point and event rates per dataset). Callers that retrain
// frequently cache these vectors: change-point detection is the expensive
// step. Datasets must be sorted (TrainPlusVectors sorts them).
func (p PlusParams) Featurize(in Input) []float64 {
	x := make([]float64, 0, 2*len(p.Datasets))
	for _, ds := range p.Datasets {
		var cps, nSeries float64
		for _, series := range in.Series[ds] {
			cps += float64(len(Detect(series, p.Detector)))
			nSeries++
		}
		avgCP := 0.0
		if nSeries > 0 {
			avgCP = cps / nSeries
		}
		var ev, nComp float64
		for _, c := range in.Events[ds] {
			ev += c
			nComp++
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
// PlusParams.Featurize). The vectors must have been produced with the same
// sorted Datasets list and Detector parameters.
func TrainPlusVectors(xs [][]float64, ys []bool, p PlusParams) (*Plus, error) {
	if len(p.Datasets) == 0 {
		return nil, ErrNoDatasets
	}
	sort.Strings(p.Datasets)
	d := mlcore.NewDataset(featureNames(p.Datasets))
	for i, x := range xs {
		d.MustAdd(mlcore.Sample{X: x, Y: ys[i], ID: fmt.Sprintf("cpd-%d", i)})
	}
	var rf *forest.Forest
	if d.Len() > 0 {
		var err error
		rf, err = forest.Train(d, p.Forest)
		if err != nil {
			return nil, fmt.Errorf("cpd: training broad-incident forest: %w", err)
		}
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
		for comp, n := range in.Events[ds] {
			totalEvents += n
			if n > 0 {
				eventHits = append(eventHits, fmt.Sprintf("%s: %g events on component #%d", ds, n, comp))
			}
		}
	}
	for _, ds := range c.params.Datasets {
		for comp, series := range in.Series[ds] {
			if HasChange(series, c.params.Detector) {
				changeHits = append(changeHits, fmt.Sprintf("%s: distribution change on component #%d", ds, comp))
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
