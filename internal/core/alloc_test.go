package core

import (
	"testing"

	"scouts/internal/cloudsim"
	"scouts/internal/monitoring"
	"scouts/internal/topology"
)

// TestAnswerPathAllocations gives the Scout's own hot functions one row each
// (FeaturizeInto has TestFeaturizeIntoAllocations): the extractors' match
// finder appending into a buffer with room and the window normalisation
// allocate nothing, and the operator-facing explanation allocates the string
// it returns and nothing else.
func TestAnswerPathAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	f := getFixture(t)
	s := f.scout
	switches := newFinder(s.cfg.Extractors[topology.TypeSwitch])
	matches := make([]string, 0, 8)
	const text = "tor1.c1.dc1 flaps; agg2.c1.dc1 and tor3.c2.dc1 report FCS errors"
	window := make([]float64, 20)
	for i := range window {
		window[i] = float64(i)
	}
	var xs [][]float64
	for _, in := range f.test[:40] {
		if ex := s.fb.Extract(in.Title, in.Body, in.InitialComponents); !ex.Empty && !ex.Excluded {
			xs = append(xs, s.fb.Featurize(ex, in.CreatedAt))
		}
	}
	i := 0
	for _, c := range []struct {
		name string
		want float64
		run  func()
	}{
		{"finder.findAll", 0, func() { matches = switches.findAll(matches[:0], text) }},
		{"normalizeInPlace", 0, func() { normalizeInPlace(window, monitoring.Stats{Mean: 3, Std: 2}, true) }},
		{"normalizeInPlace (no baseline)", 0, func() { normalizeInPlace(window, monitoring.Stats{}, false) }},
		{"explainRF", 1, func() { s.explainRF(xs[i%len(xs)], i&1 == 0); i++ }},
	} {
		if got := testing.AllocsPerRun(50, c.run); got != c.want {
			t.Errorf("%s: %v allocations per call, want %v", c.name, got, c.want)
		}
	}
	if len(matches) != 3 {
		t.Errorf("findAll found %q, want three switches", matches)
	}
}

// TestFeatureBuilderAllocations pins the cost of a feature layout, which a
// retrain cycle pays twice (Train, then the reload's Restore): the names are
// cut from one string and the extractors' finders come built with the
// Config. 107 allocations measured on the PhyNet configuration over the
// simulator (1 356 when each name was formatted and each builder compiled
// its finders); the ceiling allows 5 more. A name formatted per feature
// (190 of them) or a finder compiled per builder exceeds it.
func TestFeatureBuilderAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	gen := cloudsim.New(cloudsim.Params{Seed: 3, Days: 5, IncidentsPerDay: 4})
	gen.Generate()
	cfg, err := ParseConfig(DefaultPhyNetConfig)
	if err != nil {
		t.Fatal(err)
	}
	const ceiling = 112
	if got := testing.AllocsPerRun(20, func() { NewFeatureBuilder(cfg, gen.Topology(), gen.Telemetry()) }); got > ceiling {
		t.Errorf("NewFeatureBuilder: %v allocations, ceiling %d", got, ceiling)
	}
}

// TestTrainAllocations pins what one core.Train allocates on a small fixed
// world at one worker: the dataset, the four forests and the model's own
// buffers, with per-tree, per-token and per-pull scratch reused. 1 764
// allocations measured (10 922 before the scratch was reused); the ceiling
// allows 3 % more. One more allocation per selector token, per CPD+ pull or
// per tree (300 of them) exceeds it.
func TestTrainAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	gen := cloudsim.New(cloudsim.Params{Seed: 3, Days: 20, IncidentsPerDay: 6})
	log := gen.Generate()
	cfg, err := ParseConfig(DefaultPhyNetConfig)
	if err != nil {
		t.Fatal(err)
	}
	opts := TrainOptions{
		Config: cfg, Topology: gen.Topology(), Source: gen.Telemetry(),
		Incidents: log.Incidents, Seed: 4, Workers: 1,
	}
	const ceiling = 1817
	got := testing.AllocsPerRun(5, func() {
		if _, err := Train(opts); err != nil {
			t.Fatal(err)
		}
	})
	if got > ceiling {
		t.Errorf("Train: %v allocations, ceiling %d", got, ceiling)
	}
	t.Logf("Train: %v allocations", got)
}
