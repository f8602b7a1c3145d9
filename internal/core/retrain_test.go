package core

import (
	"testing"

	"scouts/internal/ml/forest"
)

// TestRetrainWithBoostAndDecay exercises the §8 production practices:
// up-weighting previously mis-classified incidents and down-weighting old
// ones in the next retraining round.
func TestRetrainWithBoostAndDecay(t *testing.T) {
	f := getFixture(t)

	// First pass: collect the IDs the Scout got wrong on its own
	// training data slice (a proxy for production mistakes).
	wrong := map[string]bool{}
	for _, in := range f.train {
		p := f.scout.PredictIncident(in)
		if p.Usable() && p.Responsible != (in.OwnerLabel == f.scout.Team()) {
			wrong[in.ID] = true
		}
	}

	cfg, err := ParseConfig(DefaultPhyNetConfig)
	if err != nil {
		t.Fatal(err)
	}
	retrained, err := Train(TrainOptions{
		Config:        cfg,
		Topology:      f.gen.Topology(),
		Source:        f.gen.Telemetry(),
		Incidents:     f.train,
		Forest:        forest.Params{NumTrees: 40, MaxDepth: 12, Seed: 9},
		Seed:          9,
		AgeDecayHours: 24 * 60, // 60-day decay scale
		BoostIDs:      wrong,
		BoostFactor:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := retrained.EvaluateWorkers(f.test, 0)
	if c.F1() < 0.88 {
		t.Fatalf("retraining with §8 weighting should stay accurate, F1 = %v", c.F1())
	}
}

// TestFeatureCacheSpeedsRetraining verifies the cache is actually consulted
// (second Train with the same cache performs no featurization, so it must
// produce an identical model much faster — we check identity, the
// observable part).
func TestFeatureCacheSpeedsRetraining(t *testing.T) {
	f := getFixture(t)
	cfg, err := ParseConfig(DefaultPhyNetConfig)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewFeatureCache()
	opts := TrainOptions{
		Config: cfg, Topology: f.gen.Topology(), Source: f.gen.Telemetry(),
		Incidents: f.train[:200], Seed: 3, Cache: cache,
		Forest: forest.Params{NumTrees: 20, Seed: 3},
	}
	s1, err := Train(opts)
	if err != nil {
		t.Fatal(err)
	}
	warm := cacheLen(cache)
	if warm == 0 {
		t.Fatal("cache not populated")
	}
	s2, err := Train(opts)
	if err != nil {
		t.Fatal(err)
	}
	if cacheLen(cache) != warm {
		t.Fatal("second training grew the cache; it should have been fully warm")
	}
	for _, in := range f.test[:40] {
		a := s1.PredictCached(in, cache)
		b := s2.PredictCached(in, cache)
		if a.Responsible != b.Responsible {
			t.Fatal("cached retraining changed predictions")
		}
	}
}
