package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"strings"
	"testing"

	"scouts/internal/chaos"
	"scouts/internal/cloudsim"
	"scouts/internal/faults"
	"scouts/internal/incident"
	"scouts/internal/ml/cpd"
	"scouts/internal/ml/forest"
	"scouts/internal/monitoring"
	"scouts/internal/topology"
)

// A golden here pins what a path computes over fixed inputs as the sha256
// of a canonical rendering: every float by its bits, every answer as %+v
// with its explanation as text. Each golden test holds the hex it expects;
// any change to what the path computes over its inputs changes the hex,
// and the test's coverage floors show the inputs still reach every branch.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{sha256.New()} }

// floats writes the length of xs and the bits of every value.
func (d *digest) floats(xs []float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(xs)))
	d.h.Write(b[:])
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		d.h.Write(b[:])
	}
}

// prediction writes p as %+v, its explanation as Text.
func (d *digest) prediction(p Prediction) { fmt.Fprintf(d.h, "%+v\n", plain(p)) }

// text writes s on a line of its own.
func (d *digest) text(s string) { fmt.Fprintf(d.h, "%q\n", s) }

// cpdInput writes in as the detector reads it: Broad, then every pull in
// pull order with its count or its series' values.
func (d *digest) cpdInput(in cpd.Input) {
	fmt.Fprintf(d.h, "broad=%v pulls=%d\n", in.Broad, len(in.Pulls))
	for _, pl := range in.Pulls {
		fmt.Fprintf(d.h, "%s event=%v\n", pl.Dataset, pl.Event)
		if pl.Event {
			d.floats([]float64{pl.Count})
		} else {
			d.floats(in.Values[pl.From:pl.To])
		}
	}
}

// check fails t unless the digest is want.
func (d *digest) check(t testing.TB, what, want string) {
	t.Helper()
	if got := hex.EncodeToString(d.h.Sum(nil)); got != want {
		t.Errorf("%s: sha256 %s, want %s", what, got, want)
	}
}

// plain is p with its explanation as Text, however the answer kept it.
func plain(p Prediction) Prediction {
	p.Text, p.rf = p.Explanation(), rfExplanation{}
	return p
}

// cpdEvidence is a cpd.Input read back per dataset: its series and its
// event counts in pull order.
type cpdEvidence struct {
	Broad  bool
	Series map[string][][]float64
	Events map[string][]float64
}

// evidenceOf reads a flat cpd.Input back into per-dataset maps, each
// series clipped as the Input hands it to the detector.
func evidenceOf(in cpd.Input) cpdEvidence {
	ev := cpdEvidence{Broad: in.Broad, Series: map[string][][]float64{}, Events: map[string][]float64{}}
	for _, pl := range in.Pulls {
		if pl.Event {
			ev.Events[pl.Dataset] = append(ev.Events[pl.Dataset], pl.Count)
		} else {
			ev.Series[pl.Dataset] = append(ev.Series[pl.Dataset], in.Values[pl.From:pl.To:pl.To])
		}
	}
	return ev
}

// windowOnly hides the Telemetry's StatsSource capability, forcing the
// builder onto the window-materializing adapter.
type windowOnly struct{ monitoring.DataSource }

// TestFeaturizeMatchesOldPath: over every kind of source stack — the
// simulator, behind the window-materializing adapter, behind a breaker, and
// a tripping breaker over blackouts, flaps, staleness and corruption — the
// feature vector FeaturizeInto fills through a dirty pooled vector and the
// CPD+ input CPDInput assembles, for every incident of a replayed log, are
// what the materialize-and-copy path computed, bit for bit: each digest was
// pinned beside that path before it was deleted. The healthy stacks answer
// alike, so the aggregate-backed and the materialized windows do. Then what
// the coverage plan skips: on the healthy stacks every (dataset, component)
// pair it leaves unqueried answers no values and no events on this log, so
// skipping it cannot move an answer.
func TestFeaturizeMatchesOldPath(t *testing.T) {
	gen := cloudsim.New(cloudsim.Params{Seed: 9, Days: 12, IncidentsPerDay: 10})
	log := gen.Generate()
	cfg, err := ParseConfig(DefaultPhyNetConfig)
	if err != nil {
		t.Fatal(err)
	}
	tel := gen.Telemetry()
	sched := chaos.Schedule{
		Blackouts:   []chaos.Blackout{{Dataset: cloudsim.DSTemp, Start: 60, End: 90}},
		Flaps:       []chaos.Flap{{Dataset: cloudsim.DSPFC, Start: 0, End: chaos.Forever, Period: 7, Duty: 0.6}},
		Stalenesses: []chaos.Staleness{{Dataset: cloudsim.DSPingmesh, Start: 100, End: 160, Lag: 5}},
		Corruptions: []chaos.Corruption{{Dataset: cloudsim.DSIfCounters, Start: 0, End: chaos.Forever, NaNProb: 0.05, SpikeProb: 0.1}},
	}
	const healthy = "a370cce580b1d7d93dad81ae990bc1b0730c79a3c799f24f9dc5292501289347"
	for _, stack := range []struct {
		name, golden string
		mk           func() monitoring.DataSource // fresh, so a breaker starts closed
	}{
		{"simulator", healthy, func() monitoring.DataSource { return tel }},
		{"window-only", healthy, func() monitoring.DataSource { return windowOnly{tel} }},
		{"breaker", healthy, func() monitoring.DataSource { return faults.NewBreaker(tel, faults.BreakerParams{}) }},
		{"breaker+chaos", "42448024019d47fb308fb976f4b1dcbc964cc837951cff8209cec5b1861029cf", func() monitoring.DataSource {
			c := chaos.New(tel, sched, 3)
			c.ClusterOf = gen.Topology().ClusterOf
			return faults.NewBreaker(c, faults.BreakerParams{Trip: 4, Cooldown: 3, StaleAfter: 2})
		}},
	} {
		fb := NewFeatureBuilder(cfg, gen.Topology(), stack.mk())
		d := newDigest()
		x := make([]float64, len(fb.FeatureNames()))
		vectors, series, events := 0, 0, 0
		for _, in := range log.Incidents {
			ex := fb.Extract(in.Title, in.Body, in.Components)
			if ex.Empty {
				continue
			}
			for i := range x {
				x[i] = math.NaN() // a dirty pooled vector
			}
			d.floats(fb.FeaturizeInto(x, ex, in.CreatedAt))
			vectors++
			cin := fb.CPDInput(ex, in.CreatedAt)
			d.cpdInput(cin)
			for _, pl := range cin.Pulls {
				if pl.Event {
					events++
				} else {
					series++
				}
			}
		}
		if vectors < 50 || series < 500 || events < 100 {
			t.Fatalf("%s: pinned only %d vectors, %d CPD series and %d CPD event counts", stack.name, vectors, series, events)
		}
		d.check(t, stack.name, stack.golden)
		if stack.name == "simulator" || stack.name == "breaker" {
			checkSkippedPairsAnswerNothing(t, stack.name, fb, stack.mk(), log)
		}
	}
}

// checkSkippedPairsAnswerNothing queries src about every pair the coverage
// plan skips for the log's incidents: each component featurization or
// CPD+ may reach (the extraction, a cluster's switches and servers, a
// DC's clusters) under each dataset that does not cover its type.
func checkSkippedPairsAnswerNothing(t *testing.T, name string, fb *FeatureBuilder, src monitoring.DataSource, log *incident.Log) {
	t.Helper()
	T := fb.cfg.LookbackHours
	skipped := 0
	for _, in := range log.Incidents {
		ex := fb.Extract(in.Title, in.Body, in.Components)
		comps := ex.All()
		for _, cl := range ex.OfType(topology.TypeCluster) {
			comps = append(comps, fb.topo.DescendantsOfType(cl, topology.TypeSwitch)...)
			comps = append(comps, fb.topo.DescendantsOfType(cl, topology.TypeServer)...)
		}
		for _, dc := range ex.OfType(topology.TypeDC) {
			comps = append(comps, fb.topo.DescendantsOfType(dc, topology.TypeCluster)...)
		}
		at := in.CreatedAt
		for _, comp := range comps {
			c, _ := fb.topo.Lookup(comp)
			for _, ds := range src.Datasets() {
				if ds.CoversType(c.Type) {
					continue
				}
				skipped++
				if v, n := src.SeriesWindow(ds.Name, comp, at-2*T, at), src.EventsWindow(ds.Name, comp, at-T, at); len(v)+len(n) != 0 {
					t.Fatalf("%s: %s, which %s does not cover, answers %d values and %d events at t=%v", name, comp, ds.Name, len(v), len(n), at)
				}
			}
		}
	}
	if skipped < 1000 {
		t.Fatalf("%s: only %d skipped pairs queried", name, skipped)
	}
}

// TestPredictMatchesOldPath: every field of every answer Predict and
// PredictBatch give — verdict, confidence, components, explanation, health
// — over the fixture's incidents and over a world whose selector sends a
// few incidents to CPD+, and both labels' explanations of every held-out
// vector, are the old answer path's: each digest was pinned beside that
// path (a per-answer Sprintf explanation, the selector over the joined
// text) before it was deleted.
func TestPredictMatchesOldPath(t *testing.T) {
	f := getFixture(t)
	// A second world, one whose model selector found something to learn: it
	// reads the shared text and sends a few incidents down the CPD+ path.
	gen := cloudsim.New(cloudsim.Params{Seed: 3, Days: 40, IncidentsPerDay: 8})
	log := gen.Generate()
	live, err := Train(TrainOptions{
		Config: f.scout.cfg, Topology: gen.Topology(), Source: gen.Telemetry(),
		Incidents: log.Incidents[:200], Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	models := map[string]int{}
	answer := func(s *Scout, ins []*incident.Incident, what, golden string) {
		t.Helper()
		d := newDigest()
		for _, in := range ins {
			p := s.Predict(in.Title, in.Body, in.InitialComponents, in.CreatedAt)
			models[p.Model]++
			d.prediction(p)
		}
		for _, p := range s.PredictBatch(incidentRequests(ins)) {
			d.prediction(p)
		}
		d.check(t, what, golden)
	}
	answer(f.scout, append(append([]*incident.Incident(nil), f.train...), f.test...),
		"fixture", "0e7f4b7eb95ce4880e2c9ebaf0d74435f55022df7c3c69791abdc32a09088435")
	answer(live, log.Incidents, "seed-3 world", "48484c1baecea0c8385449e81fdc15293dfead1259fa08e15c0a716a09c78072")
	if models["rf"] < 1000 || models["cpd+"] < 3 || models["none"] == 0 {
		t.Fatalf("predictions by model: %v", models)
	}
	s := f.scout
	signals := 0
	d := newDigest()
	for _, in := range f.test {
		ex := s.fb.Extract(in.Title, in.Body, in.Components)
		if ex.Empty {
			continue
		}
		x := s.fb.Featurize(ex, in.CreatedAt)
		for _, label := range []bool{false, true} {
			p := Prediction{Responsible: label}
			s.explainRF(&p, x)
			signals += strings.Count(p.Explanation(), " (")
			d.text(p.Explanation())
		}
	}
	if signals < 1000 {
		t.Fatalf("only %d signals rendered", signals)
	}
	d.check(t, "explanations", "6c9e0ef30e7ef3b3ce16852430862b987de181b6d6cdcf834ebe46f7616f3f58")
}

// TestExplanationMatchesStringOracle: every held-out RF answer's
// explanation reads the same appended behind what a buffer already holds
// and as the string logs read (TestPredictMatchesOldPath pins the text),
// and the rendering of kept signals is fmt's for values and names a
// trained forest rarely produces: NaN, ±Inf, ±0, negatives that round to
// -0.000, halves at the third decimal, and names long enough to outgrow
// the encoder's stack buffer.
func TestExplanationMatchesStringOracle(t *testing.T) {
	f := getFixture(t)
	rf := 0
	for _, in := range f.test {
		p := f.scout.PredictIncident(in)
		if p.Model != "rf" {
			continue
		}
		rf++
		text := p.Explanation()
		if !strings.HasPrefix(text, "random forest points ") {
			t.Fatalf("incident %s: RF explanation %q", in.ID, text)
		}
		if got := string(p.AppendExplanation([]byte("held: "))); got != "held: "+text {
			t.Fatalf("incident %s: AppendExplanation\n%q\nExplanation\n%q", in.ID, got, text)
		}
	}
	if rf < len(f.test)/2 {
		t.Fatalf("only %d of %d held-out answers came from the random forest", rf, len(f.test))
	}

	long := strings.Repeat("dataset_with_a_long_name.", 24) + "max"
	for _, signals := range [][]forest.Contribution{
		nil,
		{{Feature: "pingmesh.drop_rate", Value: math.NaN()}},
		{{Feature: "a", Value: math.Inf(1)}, {Feature: "b", Value: math.Inf(-1)}},
		{{Feature: "zero", Value: 0}, {Feature: "negzero", Value: math.Copysign(0, -1)}},
		{{Feature: "tiny", Value: -0.0004}, {Feature: "tinier", Value: -1e-300}, {Feature: "half", Value: -0.0005}},
		{{Feature: "up", Value: 0.0005}, {Feature: "round", Value: 0.12349999}, {Feature: "big", Value: -123456.7895}},
		{{Feature: long, Value: 0.25}, {Feature: long + "2", Value: -0.125}, {Feature: "\u00e9<&>\"", Value: 1}},
	} {
		for _, label := range []bool{false, true} {
			p := Prediction{Responsible: label}
			p.rf.team = "Phy<Net>"
			p.rf.n = copy(p.rf.signals[:], signals)
			var parts []string
			for _, c := range signals {
				parts = append(parts, fmt.Sprintf("%s (%+.3f)", c.Feature, c.Value))
			}
			direction := "points away from"
			if label {
				direction = "points to"
			}
			want := fmt.Sprintf("random forest %s %s", direction, p.rf.team)
			if len(parts) > 0 {
				want += "; strongest signals: " + strings.Join(parts, ", ")
			}
			want += ". Known false negatives: transient issues already resolved, symptoms not covered by monitoring, incidents too broad in scope."
			if got := p.Explanation(); got != want {
				t.Errorf("signals %v: explanation\n%q\nfmt\n%q", signals, got, want)
			}
		}
	}
	if p := (Prediction{Text: "kept as text"}); p.Explanation() != "kept as text" || string(p.AppendExplanation(nil)) != "kept as text" {
		t.Errorf("a text explanation reads %q", p.Explanation())
	}
}
