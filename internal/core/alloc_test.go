package core

import (
	"testing"

	"scouts/internal/allocgate"
	"scouts/internal/cloudsim"
	"scouts/internal/faults"
	"scouts/internal/ml/forest"
	"scouts/internal/monitoring"
	"scouts/internal/topology"
)

// TestAnswerPathAllocations gives the Scout's own hot functions one row
// each: the extractors' match finder appending into a buffer with room,
// the window normalisation and the operator-facing explanation — its
// signals kept in the answer, its text appended into a buffer with room —
// allocate nothing.
func TestAnswerPathAllocations(t *testing.T) {
	f := getFixture(t)
	s := f.scout
	switches := newFinder(s.cfg.Extractors[topology.TypeSwitch])
	matches := make([][]byte, 0, 8)
	text := []byte("tor1.c1.dc1 flaps; agg2.c1.dc1 and tor3.c2.dc1 report FCS errors")
	if matches = switches.findAll(matches[:0], text); len(matches) != 3 {
		t.Errorf("findAll found %q, want three switches", matches)
	}
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
		run  func()
	}{
		{"core.finder.findAll", func() { matches = switches.findAll(matches[:0], text) }},
		{"core.normalizeInPlace", func() { normalizeInPlace(window, monitoring.Stats{Mean: 3, Std: 2}, true) }},
		{"core.normalizeInPlace/no-baseline", func() { normalizeInPlace(window, monitoring.Stats{}, false) }},
		{"core.explainRF", func() { s.explainRF(&p, xs[i%len(xs)]); i++ }},
		{"core.AppendExplanation", func() { why = p.AppendExplanation(why[:0]) }},
	} {
		allocgate.Check(t, c.name, 0, c.run)
	}
}

// TestPredictAllocations pins one prediction through the random forest
// over the breaker-wrapped simulator — the serving stack — at none, one
// row per held-out incident the forest answers. The extractors read the
// text copied into the pooled scratch, the Extraction's array (the
// answer's Components) is cut from the scratch's block, made once in
// hundreds of names, the feature vector is pooled and carried by the
// pointer the pool holds, the health report and the explanation's three
// signals — the forest's own name strings — travel in the Prediction by
// value, and the request's memo stays on its stack. The model selector
// adds nothing: live, it counts title and body into a stack vector. An
// explanation whose strongest signals tie reads them off the full
// ranking, one allocation more; none of the predictions measured here
// does.
func TestPredictAllocations(t *testing.T) {
	f := getFixture(t)
	scout, err := Train(TrainOptions{
		Config:    f.scout.cfg,
		Topology:  f.gen.Topology(),
		Source:    faults.NewBreaker(f.gen.Telemetry(), faults.BreakerParams{}),
		Incidents: f.train[:150],
		Forest:    forest.Params{NumTrees: 60, MaxDepth: 14, Seed: 7},
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sel := scout.selector.(*Selector); sel.rf == nil {
		t.Fatal("the model selector of this world is not live")
	}
	measured := 0
	for _, in := range f.test[:60] {
		if scout.PredictIncident(in).Model != "rf" {
			continue
		}
		allocgate.Check(t, "core.PredictIncident/"+in.ID, 0, func() { scout.PredictIncident(in) })
		measured++
	}
	if measured < 30 {
		t.Fatalf("only %d random-forest predictions measured", measured)
	}
}

// TestExtractAllocations pins Extract at none: the text is copied into the
// pooled scratch's buffer, and the Extraction's array is cut from the
// scratch's block, which is made once in hundreds of names. All makes its
// one slice.
func TestExtractAllocations(t *testing.T) {
	gen := cloudsim.New(cloudsim.Params{Seed: 1, Days: 10, IncidentsPerDay: 5})
	cfg, err := ParseConfig(DefaultPhyNetConfig)
	if err != nil {
		t.Fatal(err)
	}
	fb := NewFeatureBuilder(cfg, gen.Topology(), faults.NewBreaker(gen.Telemetry(), faults.BreakerParams{}))
	mentioned := []string{"tor1.c1.dc1"}
	for _, tc := range []struct{ name, title, body string }{
		{"one-device", "Packet corruption alarms on tor1.c1.dc1", "FCS errors above threshold"},
		{"vm-chain", "vm3.c2.dc1 unreachable", "VM vm3.c2.dc1 on srv2.c2.dc1 cannot reach tor1.c2.dc1 in cluster c2.dc1"},
		{"two-clusters", "clusters c1.dc1 and c3.dc2 are degraded", "canary failures across dc1 and dc2"},
	} {
		ex := fb.Extract(tc.title, tc.body, mentioned)
		allocgate.Check(t, "core.Extract/"+tc.name, 0, func() { ex = fb.Extract(tc.title, tc.body, mentioned) })
		allocgate.Check(t, "core.Extraction.All/"+tc.name, 1, func() { _ = ex.All() })
	}
}

// TestFeaturizeIntoAllocations pins FeaturizeInto over the breaker-wrapped
// simulator — the serving stack — at none: no series pull, no summarise
// and no contributor list allocates once the pooled scratch has grown,
// whether one device contributes or two whole clusters do.
func TestFeaturizeIntoAllocations(t *testing.T) {
	gen := cloudsim.New(cloudsim.Params{Seed: 1, Days: 10, IncidentsPerDay: 5})
	gen.Generate() // registers the trace's anomalies
	cfg, err := ParseConfig(DefaultPhyNetConfig)
	if err != nil {
		t.Fatal(err)
	}
	fb := NewFeatureBuilder(cfg, gen.Topology(), faults.NewBreaker(gen.Telemetry(), faults.BreakerParams{}))
	x := make([]float64, len(fb.FeatureNames()))
	for _, tc := range []struct {
		name, body string
		minComps   int
	}{
		{"one-device", "tor1.c1.dc1 alarms", 1},
		{"one-cluster", "cluster c1.dc1 is degraded", 20},
		{"two-clusters", "clusters c1.dc1 and c3.dc2 are degraded", 40},
	} {
		ex := fb.Extract(tc.name, tc.body, nil)
		n := 0
		for _, seg := range fb.contributors(new(featScratch), &ex, topology.TypeCluster) {
			n += len(seg.comps)
		}
		if n < tc.minComps {
			t.Fatalf("%s: %d cluster contributors, want at least %d", tc.name, n, tc.minComps)
		}
		for _, at := range []struct {
			name string
			t    float64
		}{{"t50", 50}, {"t120.5", 120.5}} {
			allocgate.Check(t, "core.FeaturizeInto/"+tc.name+"/"+at.name, 0, func() { fb.FeaturizeInto(x, ex, at.t) })
		}
	}
}

// TestFeatureBuilderAllocations pins the cost of a feature layout, which a
// retrain cycle pays twice (Train, then the reload's Restore), on the
// PhyNet configuration over the simulator: the groups' datasets and slots
// are runs of one block each, the names are cut from one string and the
// extractors' finders come built with the Config.
func TestFeatureBuilderAllocations(t *testing.T) {
	gen := cloudsim.New(cloudsim.Params{Seed: 3, Days: 5, IncidentsPerDay: 4})
	gen.Generate()
	cfg, err := ParseConfig(DefaultPhyNetConfig)
	if err != nil {
		t.Fatal(err)
	}
	allocgate.Check(t, "core.NewFeatureBuilder", 12, func() { NewFeatureBuilder(cfg, gen.Topology(), gen.Telemetry()) })
}

// TestTrainAllocations pins what one core.Train allocates on a small fixed
// world at one worker: the dataset, the four forests and the model's own
// buffers. Scratch is reused or made once per pass: the memos and feature
// vectors are one block each, the extractions' arrays are cut from the
// extraction scratch's name blocks, a selector pass tokenizes into one list
// cut from one lower-cased arena and counts into one block, the CPD+
// evidence is assembled in one reused input and featurized into one block,
// and one trainer's presorted columns, split context and node blocks serve
// all four forests.
func TestTrainAllocations(t *testing.T) {
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
	allocgate.Check(t, "core.Train", 177, func() {
		if _, err := Train(opts); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRestoreAllocations pins what a reload allocates when the pack carries
// the configuration already served, as every pack of a retrain cycle does:
// the sections and each forest's arrays, a section at a time, the feature
// layout, the selector's words and the Scout.
func TestRestoreAllocations(t *testing.T) {
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
	allocgate.Check(t, "core.Restore", 132, restore)
}
