package evaluate

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"scouts/internal/cloudsim"
	"scouts/internal/core"
	"scouts/internal/incident"
	"scouts/internal/monitoring"
)

// fixedPredictor answers from a map of incident ID -> responsible.
type fixedPredictor struct {
	answers map[string]bool
}

func (f fixedPredictor) PredictIncident(in *incident.Incident) core.Prediction {
	resp, ok := f.answers[in.ID]
	if !ok {
		return core.Prediction{Verdict: core.VerdictFallback, Model: "none"}
	}
	v := core.VerdictNotResponsible
	if resp {
		v = core.VerdictResponsible
	}
	return core.Prediction{Verdict: v, Responsible: resp, Confidence: 0.9, Model: "rf"}
}

const team = "PhyNet"

func mkIncident(id string, owner string, hops ...incident.Hop) *incident.Incident {
	return &incident.Incident{ID: id, OwnerLabel: owner, CreatedAt: hops[0].Enter, Hops: hops}
}

func TestGainInComputation(t *testing.T) {
	// PhyNet-owned, mis-routed: 3h wasted at Storage, 1h at PhyNet.
	in := mkIncident("a", team,
		incident.Hop{Team: "Storage", Enter: 0, Exit: 3},
		incident.Hop{Team: team, Enter: 3, Exit: 4},
	)
	r := Run(fixedPredictor{answers: map[string]bool{"a": true}}, []*incident.Incident{in}, team, nil, rand.New(rand.NewSource(1)))
	if len(r.GainIn) != 1 || math.Abs(r.GainIn[0]-0.75) > 1e-9 {
		t.Fatalf("gain-in = %v, want [0.75]", r.GainIn)
	}
	if math.Abs(r.BestGainIn[0]-0.75) > 1e-9 {
		t.Fatalf("best gain-in = %v", r.BestGainIn)
	}
	if r.ErrorOut != 0 {
		t.Fatalf("error-out = %v", r.ErrorOut)
	}
}

func TestFalseNegativeZeroGain(t *testing.T) {
	in := mkIncident("a", team,
		incident.Hop{Team: "Storage", Enter: 0, Exit: 3},
		incident.Hop{Team: team, Enter: 3, Exit: 4},
	)
	r := Run(fixedPredictor{answers: map[string]bool{"a": false}}, []*incident.Incident{in}, team, nil, rand.New(rand.NewSource(1)))
	if r.GainIn[0] != 0 {
		t.Fatalf("FN should yield zero gain, got %v", r.GainIn)
	}
	if r.ErrorOut != 1 {
		t.Fatalf("error-out = %v, want 1", r.ErrorOut)
	}
	// The opportunity is still recorded as best possible.
	if r.BestGainIn[0] != 0.75 {
		t.Fatalf("best gain-in = %v", r.BestGainIn)
	}
}

func TestGainOutComputation(t *testing.T) {
	// Storage-owned, dragged through PhyNet for 2h of 4h.
	in := mkIncident("b", "Storage",
		incident.Hop{Team: team, Enter: 0, Exit: 2},
		incident.Hop{Team: "Storage", Enter: 2, Exit: 4},
	)
	r := Run(fixedPredictor{answers: map[string]bool{"b": false}}, []*incident.Incident{in}, team, nil, rand.New(rand.NewSource(1)))
	if len(r.GainOut) != 1 || math.Abs(r.GainOut[0]-0.5) > 1e-9 {
		t.Fatalf("gain-out = %v", r.GainOut)
	}
	if r.OverheadIn[0] != 0 {
		t.Fatalf("true negative should add zero overhead, got %v", r.OverheadIn)
	}
}

func TestFalsePositiveSamplesOverhead(t *testing.T) {
	in := mkIncident("c", "Storage",
		incident.Hop{Team: "Storage", Enter: 0, Exit: 4},
	)
	baseline := []float64{0.3}
	r := Run(fixedPredictor{answers: map[string]bool{"c": true}}, []*incident.Incident{in}, team, baseline, rand.New(rand.NewSource(1)))
	if len(r.OverheadIn) != 1 || r.OverheadIn[0] != 0.3 {
		t.Fatalf("overhead = %v, want sampled 0.3", r.OverheadIn)
	}
}

func TestFallbackSkipped(t *testing.T) {
	in := mkIncident("d", team, incident.Hop{Team: team, Enter: 0, Exit: 1})
	r := Run(fixedPredictor{}, []*incident.Incident{in}, team, nil, rand.New(rand.NewSource(1)))
	if r.Evaluated != 0 || r.Skipped != 1 {
		t.Fatalf("evaluated=%d skipped=%d", r.Evaluated, r.Skipped)
	}
}

func TestCorrectOnAlreadyCorrect(t *testing.T) {
	// Correctly-routed PhyNet incident (single hop at PhyNet).
	a := mkIncident("a", team, incident.Hop{Team: team, Enter: 0, Exit: 2})
	// Non-PhyNet incident never touching PhyNet.
	b := mkIncident("b", "DNS", incident.Hop{Team: "DNS", Enter: 0, Exit: 2})
	r := Run(fixedPredictor{answers: map[string]bool{"a": true, "b": false}},
		[]*incident.Incident{a, b}, team, nil, rand.New(rand.NewSource(1)))
	if r.CorrectOnAlreadyCorrect != 1 {
		t.Fatalf("correct-on-correct = %v", r.CorrectOnAlreadyCorrect)
	}
}

func TestOverheadDistribution(t *testing.T) {
	ins := []*incident.Incident{
		mkIncident("a", "Storage",
			incident.Hop{Team: team, Enter: 0, Exit: 1},
			incident.Hop{Team: "Storage", Enter: 1, Exit: 4}),
		mkIncident("b", team, incident.Hop{Team: team, Enter: 0, Exit: 2}),
		mkIncident("c", "DNS", incident.Hop{Team: "DNS", Enter: 0, Exit: 1}),
	}
	d := OverheadDistribution(ins, team)
	if len(d) != 1 || math.Abs(d[0]-0.25) > 1e-9 {
		t.Fatalf("overhead distribution = %v", d)
	}
}

func TestWastedAndTeamTimeAfter(t *testing.T) {
	in := mkIncident("a", team,
		incident.Hop{Team: "Storage", Enter: 0, Exit: 2},
		incident.Hop{Team: "SLB", Enter: 2, Exit: 5},
		incident.Hop{Team: team, Enter: 5, Exit: 7},
	)
	if got := WastedAfter(in, team, 0); math.Abs(got-5) > 1e-9 {
		t.Fatalf("WastedAfter(0) = %v", got)
	}
	if got := WastedAfter(in, team, 3); math.Abs(got-2) > 1e-9 {
		t.Fatalf("WastedAfter(3) = %v (partial hop clipping)", got)
	}
	if got := TeamTimeAfter(in, team, 6); math.Abs(got-1) > 1e-9 {
		t.Fatalf("TeamTimeAfter(6) = %v", got)
	}
	if got := TeamTimeAfter(in, team, 10); got != 0 {
		t.Fatalf("TeamTimeAfter past end = %v", got)
	}
}

// TestRunWorkersDeterministic pins the parallel fan-out contract: because
// predictions fill an index-addressed slice and the scoring loop (including
// the baseline-overhead rng draws) runs sequentially in incident order, the
// result must be identical at every worker count.
func TestRunWorkersDeterministic(t *testing.T) {
	answers := map[string]bool{}
	var ins []*incident.Incident
	for i := 0; i < 60; i++ {
		id := fmt.Sprintf("in-%d", i)
		switch i % 3 {
		case 0: // PhyNet-owned, mis-routed
			ins = append(ins, mkIncident(id, team,
				incident.Hop{Team: "Storage", Enter: 0, Exit: 2},
				incident.Hop{Team: team, Enter: 2, Exit: 3}))
			answers[id] = true
		case 1: // other-owned, correctly rejected
			ins = append(ins, mkIncident(id, "Storage",
				incident.Hop{Team: team, Enter: 0, Exit: 1},
				incident.Hop{Team: "Storage", Enter: 1, Exit: 3}))
			answers[id] = false
		default: // other-owned false positive: consumes one baseline rng draw
			ins = append(ins, mkIncident(id, "DNS",
				incident.Hop{Team: "DNS", Enter: 0, Exit: 2}))
			answers[id] = true
		}
	}
	baseline := []float64{0.1, 0.25, 0.4, 0.6}
	p := fixedPredictor{answers: answers}
	want := RunWorkers(p, ins, team, baseline, rand.New(rand.NewSource(42)), 1)
	for _, w := range []int{0, 2, 8} {
		got := RunWorkers(p, ins, team, baseline, rand.New(rand.NewSource(42)), w)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d result differs from workers=1:\n%+v\nvs\n%+v", w, got, want)
		}
	}
	// And the legacy entry point is the same computation.
	if seq := Run(p, ins, team, baseline, rand.New(rand.NewSource(42))); !reflect.DeepEqual(want, seq) {
		t.Fatal("Run and RunWorkers disagree")
	}
}

// inFlight is a DataSource that records the peak number of its calls in
// flight at once. Each call yields while counted, so overlapping callers
// are seen even when they share a core.
type inFlight struct {
	monitoring.DataSource
	now, peak atomic.Int32
}

func (s *inFlight) enter() {
	n := s.now.Add(1)
	for p := s.peak.Load(); n > p && !s.peak.CompareAndSwap(p, n); p = s.peak.Load() {
	}
	runtime.Gosched()
}

func (s *inFlight) SeriesWindow(dataset, component string, from, to float64) []float64 {
	s.enter()
	defer s.now.Add(-1)
	return s.DataSource.SeriesWindow(dataset, component, from, to)
}

func (s *inFlight) EventsWindow(dataset, component string, from, to float64) []monitoring.EventRecord {
	s.enter()
	defer s.now.Add(-1)
	return s.DataSource.EventsWindow(dataset, component, from, to)
}

// TestRunWorkersHonorsWorkers pins what the workers argument means for a
// real Scout: that many predictions in flight and no more (the batched path
// this replaced fanned every chunk over GOMAXPROCS whatever it was told),
// with the Result identical at every setting.
func TestRunWorkersHonorsWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	gen := cloudsim.New(cloudsim.Params{Seed: 5, Days: 20, IncidentsPerDay: 8})
	ins := gen.Generate().Incidents
	cfg, err := core.ParseConfig(core.DefaultPhyNetConfig)
	if err != nil {
		t.Fatal(err)
	}
	src := &inFlight{DataSource: gen.Telemetry()}
	scout, err := core.Train(core.TrainOptions{
		Config: cfg, Topology: gen.Topology(), Source: src, Incidents: ins[:len(ins)/2], Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	test := ins[len(ins)/2:]
	baseline := OverheadDistribution(ins[:len(ins)/2], cloudsim.TeamPhyNet)

	src.peak.Store(0)
	want := RunWorkers(scout, test, cloudsim.TeamPhyNet, baseline, rand.New(rand.NewSource(3)), 1)
	if peak := src.peak.Load(); peak != 1 {
		t.Fatalf("workers=1 had %d monitoring pulls in flight at once, want 1", peak)
	}
	if want.Evaluated < len(test)/2 {
		t.Fatalf("only %d of %d incidents evaluated", want.Evaluated, len(test))
	}
	for _, w := range []int{2, 8} {
		src.peak.Store(0)
		got := RunWorkers(scout, test, cloudsim.TeamPhyNet, baseline, rand.New(rand.NewSource(3)), w)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d result differs from workers=1:\n%+v\nvs\n%+v", w, got, want)
		}
		if peak := int(src.peak.Load()); peak > w {
			t.Fatalf("workers=%d had %d monitoring pulls in flight at once", w, peak)
		}
	}
}

func TestNthTeamExit(t *testing.T) {
	in := mkIncident("a", team,
		incident.Hop{Team: "Storage", Enter: 0, Exit: 2},
		incident.Hop{Team: "SLB", Enter: 2, Exit: 5},
		incident.Hop{Team: team, Enter: 5, Exit: 7},
	)
	if got := NthTeamExit(in, 0); got != 0 {
		t.Fatalf("n=0: %v", got)
	}
	if got := NthTeamExit(in, 2); got != 5 {
		t.Fatalf("n=2: %v", got)
	}
	if got := NthTeamExit(in, 10); got != 7 {
		t.Fatalf("n beyond teams: %v", got)
	}
}
