package cpd

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// mapInput is Input as it read before it was flat: per dataset, its series
// and its event counts, each in pull order. The tests write evidence in it
// and the oracles read it.
type mapInput struct {
	Broad  bool
	Series map[string][][]float64
	Events map[string][]float64
}

// flat pulls m's evidence into an Input, dataset by dataset in sorted
// order, each one's series before its event counts.
func (m mapInput) flat() Input {
	in := Input{Broad: m.Broad}
	var names []string
	for ds := range m.Series {
		names = append(names, ds)
	}
	for ds := range m.Events {
		if _, ok := m.Series[ds]; !ok {
			names = append(names, ds)
		}
	}
	sort.Strings(names)
	for _, ds := range names {
		for _, series := range m.Series[ds] {
			from := len(in.Values)
			in.Values = append(in.Values, series...)
			in.Pulls = append(in.Pulls, Pull{Dataset: ds, From: from, To: len(in.Values)})
		}
		for _, n := range m.Events[ds] {
			in.Pulls = append(in.Pulls, Pull{Dataset: ds, Event: true, Count: n})
		}
	}
	return in
}

// healthyEvidence builds stationary series and no events.
func healthyEvidence(broad bool, rng *rand.Rand) mapInput {
	m := mapInput{Broad: broad, Series: map[string][][]float64{}, Events: map[string][]float64{}}
	for _, ds := range testDatasets[:2] {
		var series [][]float64
		for c := 0; c < 3; c++ {
			s := make([]float64, 60)
			for i := range s {
				s[i] = rng.NormFloat64()
			}
			series = append(series, s)
		}
		m.Series[ds] = series
	}
	m.Events["syslog"] = []float64{0, 0, 0}
	return m
}

// healthyInput builds an input with stationary series and no events.
func healthyInput(broad bool, rng *rand.Rand) Input {
	return healthyEvidence(broad, rng).flat()
}

// faultyInput injects a mean shift and error events.
func faultyInput(broad bool, rng *rand.Rand) Input {
	m := healthyEvidence(broad, rng)
	for c := range m.Series["ping"] {
		for i := 30; i < 60; i++ {
			m.Series["ping"][c][i] += 8
		}
	}
	m.Events["syslog"] = []float64{4, 2, 7}
	return m.flat()
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
	return TrainPlusVectors(xs, ys, p, new(forest.Trainer))
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
	stump, err := TrainPlusVectors([][]float64{make([]float64, 2*len(testDatasets))}, []bool{true}, plusParams(), new(forest.Trainer))
	if err != nil {
		t.Fatal(err)
	}
	plus = stump
	check(Input{Broad: true})
	if withSignals < 60 || bare == 0 {
		t.Fatalf("compared %d explanations with signals and %d without", withSignals, bare)
	}
}

// mapOf reads an Input back into per-dataset maps in pull order — the
// shape the oracles below were written against.
func mapOf(in Input) mapInput {
	m := mapInput{Broad: in.Broad, Series: map[string][][]float64{}, Events: map[string][]float64{}}
	for _, pl := range in.Pulls {
		if pl.Event {
			m.Events[pl.Dataset] = append(m.Events[pl.Dataset], pl.Count)
		} else {
			m.Series[pl.Dataset] = append(m.Series[pl.Dataset], in.Values[pl.From:pl.To])
		}
	}
	return m
}

// oracleFeaturize is PlusParams.Featurize as it read over per-dataset maps,
// kept verbatim as the oracle for the flat Input.
func (p PlusParams) oracleFeaturize(in mapInput) []float64 {
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

// oraclePredictNarrow is predictNarrow as it read over per-dataset maps.
func (c *Plus) oraclePredictNarrow(in mapInput) (bool, float64, string) {
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

// TestFlatInputMatchesMapOracle: on random evidence — datasets interleaved
// in any pull order, some outside the model's list, series of any length
// with and without a shift, fractional and zero event counts — the flat
// Input featurizes to the map oracle's vector bit for bit and the narrow
// rule gives the oracle's label, confidence and explanation; every series
// it hands the detector is clipped.
func TestFlatInputMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pool := []string{"a", "b", "c", "d", "e"}
	fired, points := 0, 0
	for trial := 0; trial < 300; trial++ {
		var datasets []string
		for _, ds := range pool {
			if rng.Intn(3) > 0 {
				datasets = append(datasets, ds)
			}
		}
		if len(datasets) == 0 {
			datasets = pool[:1]
		}
		plus := &Plus{params: PlusParams{Datasets: datasets, Detector: Params{Seed: int64(trial), Permutations: 29}}}
		in := Input{Broad: rng.Intn(2) == 0}
		for n := rng.Intn(14); n > 0; n-- {
			ds := pool[rng.Intn(len(pool))]
			if rng.Intn(3) == 0 {
				in.Pulls = append(in.Pulls, Pull{Dataset: ds, Event: true, Count: float64(rng.Intn(4)) * []float64{1, 0.5}[rng.Intn(2)]})
				continue
			}
			from, size := len(in.Values), rng.Intn(41)
			shift := float64(rng.Intn(2)) * 6
			for i := 0; i < size; i++ {
				v := rng.NormFloat64()
				if i >= size/2 {
					v += shift
				}
				in.Values = append(in.Values, v)
			}
			in.Pulls = append(in.Pulls, Pull{Dataset: ds, From: from, To: len(in.Values)})
		}
		for j := range in.Pulls {
			if s := in.series(&in.Pulls[j]); cap(s) != len(s) {
				t.Fatalf("trial %d: series %d is not clipped: an append would run into its neighbour", trial, j)
			}
		}
		m := mapOf(in)
		got, want := plus.params.Featurize(in), plus.params.oracleFeaturize(m)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d features, oracle %d", trial, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d: feature %d is %v, oracle %v", trial, i, got[i], want[i])
			}
			if i%2 == 0 && got[i] > 0 {
				points++
			}
		}
		gl, gc, ge := plus.predictNarrow(in)
		wl, wc, we := plus.oraclePredictNarrow(m)
		if gl != wl || gc != wc || ge != we {
			t.Fatalf("trial %d: narrow rule (%v, %v, %q), oracle (%v, %v, %q)", trial, gl, gc, ge, wl, wc, we)
		}
		if gl {
			fired++
		}
	}
	if fired < 50 || points < 50 {
		t.Fatalf("only %d rule firings and %d datasets with change points in 300 trials", fired, points)
	}
}

// TestTrainPlusVectorsRefusesUnsortedDatasets: the vectors were laid out in
// the caller's dataset order, so a model that sorted the list would name
// each column after another dataset. The list is refused and left alone.
func TestTrainPlusVectorsRefusesUnsortedDatasets(t *testing.T) {
	p := plusParams()
	p.Datasets = []string{"zeta", "alpha"}
	xs := [][]float64{{3, 0, 0, 0}, {0, 0, 0, 0}}
	if _, err := TrainPlusVectors(xs, []bool{true, false}, p, new(forest.Trainer)); err == nil {
		t.Fatal("unsorted Datasets were accepted")
	}
	if !slices.Equal(p.Datasets, []string{"zeta", "alpha"}) {
		t.Fatalf("the caller's Datasets became %v", p.Datasets)
	}
}
