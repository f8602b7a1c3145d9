package cpd

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
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

// plusExample is one labelled training example for the broad-incident model.
type plusExample struct {
	In Input
	Y  bool
}

// trainPlus fits CPD+ from labelled inputs — TrainPlus as it read while it
// was exported; the Scout trains through TrainPlusVectors, on vectors it
// memoises, so only these tests start from Inputs. Narrow incidents do not
// need training: they use the fixed conservative rule.
func trainPlus(examples []plusExample, p PlusParams) (*Plus, error) {
	if len(p.Datasets) == 0 {
		return nil, ErrNoDatasets
	}
	sort.Strings(p.Datasets)
	var xs [][]float64
	var ys []bool
	for _, ex := range examples {
		if !ex.In.Broad {
			continue // the rule path needs no training data
		}
		xs = append(xs, p.Featurize(ex.In))
		ys = append(ys, ex.Y)
	}
	return TrainPlusVectors(xs, ys, p)
}

// oldPredictVector is PredictVector as it read while it was a second broad
// answer beside predictBroad, kept verbatim as the oracle: its own
// nil-forest rule and its own explanation.
func (c *Plus) oldPredictVector(x []float64) (bool, float64, string) {
	if c.rf == nil {
		return false, 0.75, "no broad-incident model trained"
	}
	label, conf := c.rf.Predict(x)
	return label, conf, "cluster-level change-point model (cached vector)"
}

// TestPredictVectorIsTheBroadTail pins the join: a broad incident gets one
// answer whether the model featurizes its Input or is handed the vector —
// label, confidence and explanation — and that answer's label and
// confidence are the old vector path's, bit for bit.
func TestPredictVectorIsTheBroadTail(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var examples []plusExample
	for i := 0; i < 30; i++ {
		examples = append(examples,
			plusExample{In: faultyInput(true, rng), Y: true},
			plusExample{In: healthyInput(true, rng), Y: false},
		)
	}
	plus, err := trainPlus(examples, plusParams())
	if err != nil {
		t.Fatal(err)
	}
	explained := 0
	for i := 0; i < 40; i++ {
		in := healthyInput(true, rng)
		if i%2 == 0 {
			in = faultyInput(true, rng)
		}
		x := plus.Featurize(in)
		label, conf, expl := plus.Predict(in)
		vLabel, vConf, vExpl := plus.PredictVector(x)
		if label != vLabel || conf != vConf || expl != vExpl {
			t.Fatalf("input %d: Predict = (%v, %v, %q), PredictVector = (%v, %v, %q)", i, label, conf, expl, vLabel, vConf, vExpl)
		}
		oLabel, oConf, _ := plus.oldPredictVector(x)
		if label != oLabel || conf != oConf {
			t.Fatalf("input %d: (%v, %v), the old vector path answered (%v, %v)", i, label, conf, oLabel, oConf)
		}
		if strings.Contains(expl, "top signals: ") {
			explained++
		}
	}
	if explained == 0 {
		t.Fatal("no broad answer named its top signals")
	}
}

// TestNoBroadModelFallsBackToTheRule is the drift the second copy hid: with
// no broad forest the served Predict answers a broad incident by the narrow
// rule, where the old vector path said (false, 0.75) whatever the evidence.
func TestNoBroadModelFallsBackToTheRule(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	plus, err := trainPlus(nil, plusParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, rf := plus.Parts(); rf != nil {
		t.Fatal("a model trained on no broad example has a broad forest")
	}
	in := faultyInput(true, rng)
	label, conf, expl := plus.Predict(in)
	narrow := in
	narrow.Broad = false
	nLabel, nConf, nExpl := plus.Predict(narrow)
	if label != nLabel || conf != nConf || expl != "no broad-incident model trained; "+nExpl {
		t.Fatalf("broad without a model = (%v, %v, %q), the narrow rule says (%v, %v, %q)", label, conf, expl, nLabel, nConf, nExpl)
	}
	if oLabel, oConf, _ := plus.oldPredictVector(plus.Featurize(in)); oLabel == label && oConf == conf {
		t.Fatalf("the old vector path agreed with the rule on a faulty input: (%v, %v)", oLabel, oConf)
	}
}

func TestNarrowConservativeRule(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	plus, err := trainPlus(nil, plusParams())
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
	var examples []plusExample
	for i := 0; i < 25; i++ {
		examples = append(examples,
			plusExample{In: faultyInput(true, rng), Y: true},
			plusExample{In: healthyInput(true, rng), Y: false},
		)
	}
	plus, err := trainPlus(examples, plusParams())
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
	plus, err := trainPlus(nil, plusParams())
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
	if _, err := trainPlus(nil, PlusParams{}); err != ErrNoDatasets {
		t.Fatalf("want ErrNoDatasets, got %v", err)
	}
}

func TestFeaturizeShapeAndOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	plus, err := trainPlus(nil, plusParams())
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
	plus, err := trainPlus(nil, plusParams())
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
	x := c.params.Featurize(in)
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
	var examples []plusExample
	for i := 0; i < 25; i++ {
		examples = append(examples,
			plusExample{In: faultyInput(true, rng), Y: true},
			plusExample{In: healthyInput(true, rng), Y: false},
		)
	}
	plus, err := trainPlus(examples, plusParams())
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
