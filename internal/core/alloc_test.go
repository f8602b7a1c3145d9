package core

import (
	"testing"

	"scouts/internal/cloudsim"
	"scouts/internal/monitoring"
	"scouts/internal/topology"
)

// TestAnswerPathAllocations gives the Scout's own hot functions one row each
// (FeaturizeInto has TestFeaturizeIntoAllocations): the extractors' match
// finder appending into a buffer with room, the window normalisation and
// the operator-facing explanation — its signals kept in the answer, its
// text appended into a buffer with room — allocate nothing.
func TestAnswerPathAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	f := getFixture(t)
	s := f.scout
	switches := newFinder(s.cfg.Extractors[topology.TypeSwitch])
	matches := make([][]byte, 0, 8)
	text := []byte("tor1.c1.dc1 flaps; agg2.c1.dc1 and tor3.c2.dc1 report FCS errors")
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
	var p Prediction
	why := make([]byte, 0, 512)
	for _, c := range []struct {
		name string
		want float64
		run  func()
	}{
		{"finder.findAll", 0, func() { matches = switches.findAll(matches[:0], text) }},
		{"normalizeInPlace", 0, func() { normalizeInPlace(window, monitoring.Stats{Mean: 3, Std: 2}, true) }},
		{"normalizeInPlace (no baseline)", 0, func() { normalizeInPlace(window, monitoring.Stats{}, false) }},
		{"explainRF", 0, func() { s.explainRF(&p, xs[i%len(xs)]); i++ }},
		{"AppendExplanation", 0, func() { why = p.AppendExplanation(why[:0]) }},
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
// buffers. Scratch is reused or made once per pass: the memos and feature
// vectors are one block each, the extractions' arrays are cut from the
// extraction scratch's name blocks, a selector pass tokenizes into one list,
// and a worker keeps its trees in a few blocks of doubling size. 758–759
// allocations measured (1 000–1 005 while each extraction joined its text
// and made its own array; 1 765 with a memo, a vector and a growing token
// list per incident and a block per tree; 10 922 before the scratch was
// reused); the ceiling allows 3 % more. One more allocation per tree (300
// of them) or per incident (120) exceeds it.
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
	const ceiling = 782
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

// TestRestoreAllocations pins what a reload allocates when the pack carries
// the configuration already served, as every pack of a retrain cycle does:
// the sections and each forest's arrays, a section at a time, the feature
// layout, the selector's words and the Scout. 257 allocations
// measured on the fixture's pack (1 269 when every reload parsed its
// configuration); the ceiling allows 3 % more. A reload that parses the
// configuration again, or a forest that makes a string per feature name,
// exceeds it.
func TestRestoreAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	f := getFixture(t)
	pack, err := f.scout.SnapshotPack()
	if err != nil {
		t.Fatal(err)
	}
	restore := func() {
		if _, err := Restore(pack, f.gen.Topology(), f.gen.Telemetry()); err != nil {
			t.Fatal(err)
		}
	}
	restore() // the configuration is now the one served
	const ceiling = 264
	got := testing.AllocsPerRun(10, restore)
	if got > ceiling {
		t.Errorf("Restore: %v allocations, ceiling %d", got, ceiling)
	}
	t.Logf("Restore: %v allocations", got)
}
