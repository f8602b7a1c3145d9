package cpd

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"scouts/internal/ml/forest"
)

var testDatasets = []string{"ping", "syslog", "temperature"}

func plusParams() PlusParams {
	return PlusParams{
		Datasets: append([]string(nil), testDatasets...),
		Detector: Params{Seed: 1, Permutations: 49},
		Forest:   forest.Params{NumTrees: 20, Seed: 2},
	}
}

// healthyInput builds an input with stationary series and no events.
func healthyInput(broad bool, rng *rand.Rand) Input {
	in := Input{Broad: broad, Series: map[string][][]float64{}, Events: map[string][]float64{}}
	for _, ds := range testDatasets[:2] {
		var series [][]float64
		for c := 0; c < 3; c++ {
			s := make([]float64, 60)
			for i := range s {
				s[i] = rng.NormFloat64()
			}
			series = append(series, s)
		}
		in.Series[ds] = series
	}
	in.Events["syslog"] = []float64{0, 0, 0}
	return in
}

// faultyInput injects a mean shift and error events.
func faultyInput(broad bool, rng *rand.Rand) Input {
	in := healthyInput(broad, rng)
	for c := range in.Series["ping"] {
		for i := 30; i < 60; i++ {
			in.Series["ping"][c][i] += 8
		}
	}
	in.Events["syslog"] = []float64{4, 2, 7}
	return in
}

func TestNarrowConservativeRule(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	plus, err := TrainPlus(nil, plusParams())
	if err != nil {
		t.Fatal(err)
	}
	label, conf, expl := plus.Predict(faultyInput(false, rng))
	if !label {
		t.Fatal("conservative rule should fire on events + change points")
	}
	if conf < 0.5 || conf > 1 {
		t.Fatalf("confidence %v out of range", conf)
	}
	if !strings.Contains(expl, "syslog") {
		t.Fatalf("explanation should name the signalling dataset: %q", expl)
	}

	label, _, expl = plus.Predict(healthyInput(false, rng))
	if label {
		t.Fatalf("conservative rule fired on healthy input: %s", expl)
	}
}

func TestBroadModelLearns(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var examples []PlusExample
	for i := 0; i < 25; i++ {
		examples = append(examples,
			PlusExample{In: faultyInput(true, rng), Y: true},
			PlusExample{In: healthyInput(true, rng), Y: false},
		)
	}
	plus, err := TrainPlus(examples, plusParams())
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := 0; i < 10; i++ {
		if label, _, _ := plus.Predict(faultyInput(true, rng)); label {
			correct++
		}
		if label, _, _ := plus.Predict(healthyInput(true, rng)); !label {
			correct++
		}
	}
	if correct < 17 {
		t.Fatalf("broad model accuracy %d/20 too low", correct)
	}
}

func TestBroadWithoutTrainingFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	plus, err := TrainPlus(nil, plusParams())
	if err != nil {
		t.Fatal(err)
	}
	label, _, expl := plus.Predict(faultyInput(true, rng))
	if !label {
		t.Fatal("fallback narrow rule should still fire")
	}
	if !strings.Contains(expl, "no broad-incident model") {
		t.Fatalf("explanation should mention the fallback: %q", expl)
	}
}

func TestTrainPlusRequiresDatasets(t *testing.T) {
	if _, err := TrainPlus(nil, PlusParams{}); err != ErrNoDatasets {
		t.Fatalf("want ErrNoDatasets, got %v", err)
	}
}

func TestFeaturizeShapeAndOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	plus, err := TrainPlus(nil, plusParams())
	if err != nil {
		t.Fatal(err)
	}
	x := plus.Featurize(faultyInput(true, rng))
	if len(x) != 2*len(testDatasets) {
		t.Fatalf("feature length %d, want %d", len(x), 2*len(testDatasets))
	}
	// Dataset list is sorted at train time: ping, syslog, temperature.
	// syslog avg events = (4+2+7)/3.
	if x[3] < 4 || x[3] > 4.5 {
		t.Fatalf("syslog avg events = %v, want ~4.33", x[3])
	}
	// temperature has no data at all: both features zero.
	if x[4] != 0 || x[5] != 0 {
		t.Fatalf("absent dataset should featurize to zeros, got %v %v", x[4], x[5])
	}
}

func TestMissingDatasetsTolerated(t *testing.T) {
	plus, err := TrainPlus(nil, plusParams())
	if err != nil {
		t.Fatal(err)
	}
	// Completely empty evidence must classify (as negative) without panic.
	label, conf, _ := plus.Predict(Input{Broad: false})
	if label {
		t.Fatal("no evidence should mean not responsible")
	}
	if conf < 0.5 {
		t.Fatalf("conf %v", conf)
	}
}

// oldPredictBroad is predictBroad's answer as it was assembled while the
// explanation ranked every feature to print three: Explain, a Sprintf per
// signal, a Join. Kept as the reference for the top-k rendering.
func (c *Plus) oldPredictBroad(in Input) (bool, float64, string) {
	x := c.params.featurize(in)
	label, conf := c.rf.Predict(x)
	_, contribs := c.rf.Explain(x)
	top := make([]string, 0, 3)
	for i, ct := range contribs {
		if i == 3 {
			break
		}
		top = append(top, fmt.Sprintf("%s (%+.3f)", ct.Feature, ct.Value))
	}
	expl := "cluster-level change-point model"
	if len(top) > 0 {
		expl += "; top signals: " + strings.Join(top, ", ")
	}
	return label, conf, expl
}

// TestBroadExplanationMatchesOldPath: label, confidence bits and explanation
// string of the broad path equal the old assembly's, on faulty, healthy and
// empty evidence — the last one explains with no signals at all.
func TestBroadExplanationMatchesOldPath(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var examples []PlusExample
	for i := 0; i < 25; i++ {
		examples = append(examples,
			PlusExample{In: faultyInput(true, rng), Y: true},
			PlusExample{In: healthyInput(true, rng), Y: false},
		)
	}
	plus, err := TrainPlus(examples, plusParams())
	if err != nil {
		t.Fatal(err)
	}
	withSignals, bare := 0, 0
	check := func(in Input) {
		t.Helper()
		wl, wc, we := plus.oldPredictBroad(in)
		gl, gc, ge := plus.Predict(in)
		if gl != wl || math.Float64bits(gc) != math.Float64bits(wc) || ge != we {
			t.Fatalf("broad prediction (%v, %v, %q), old path (%v, %v, %q)", gl, gc, ge, wl, wc, we)
		}
		if strings.Contains(ge, "; top signals: ") {
			withSignals++
		} else {
			bare++
		}
	}
	for i := 0; i < 40; i++ {
		check(faultyInput(true, rng))
		check(healthyInput(true, rng))
	}
	// A single-leaf forest splits on nothing: no signal to print.
	stump, err := TrainPlusVectors([][]float64{make([]float64, 2*len(testDatasets))}, []bool{true}, plusParams())
	if err != nil {
		t.Fatal(err)
	}
	plus = stump
	check(Input{Broad: true})
	if withSignals < 60 || bare == 0 {
		t.Fatalf("compared %d explanations with signals and %d without", withSignals, bare)
	}
}
