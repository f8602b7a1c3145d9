package core

import (
	"strings"
	"testing"

	"scouts/internal/cloudsim"
	"scouts/internal/incident"
	"scouts/internal/ml/forest"
)

// trainedScout builds a PhyNet Scout over a synthetic trace and returns it
// with the train/test incident split. Shared across tests (expensive).
type fixture struct {
	scout *Scout
	gen   *cloudsim.Generator
	train []*incident.Incident
	test  []*incident.Incident
}

var sharedFixture *fixture

func getFixture(t testing.TB) *fixture {
	t.Helper()
	if sharedFixture != nil {
		return sharedFixture
	}
	gen := cloudsim.New(cloudsim.Params{Seed: 42, Days: 120, IncidentsPerDay: 10})
	log := gen.Generate()
	cfg, err := ParseConfig(DefaultPhyNetConfig)
	if err != nil {
		t.Fatal(err)
	}
	// Paper-style random split by time parity keeps it simple and
	// deterministic here; the experiment harness uses the §7 split.
	var train, test []*incident.Incident
	for i, in := range log.Incidents {
		if i%2 == 0 {
			train = append(train, in)
		} else {
			test = append(test, in)
		}
	}
	scout, err := Train(TrainOptions{
		Config:    cfg,
		Topology:  gen.Topology(),
		Source:    gen.Telemetry(),
		Incidents: train,
		Forest:    forest.Params{NumTrees: 60, MaxDepth: 14, Seed: 7},
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	sharedFixture = &fixture{scout: scout, gen: gen, train: train, test: test}
	return sharedFixture
}

func TestScoutAccuracyOnHeldOut(t *testing.T) {
	f := getFixture(t)
	c := f.scout.Evaluate(f.test)
	t.Logf("held-out confusion: %s over %d incidents", c.String(), c.Total())
	if c.F1() < 0.9 {
		t.Fatalf("PhyNet Scout F1 = %v, want >= 0.9 (paper: 0.98)", c.F1())
	}
	if c.Precision() < 0.88 || c.Recall() < 0.88 {
		t.Fatalf("precision/recall too low: %s", c.String())
	}
}

func TestPredictionShape(t *testing.T) {
	f := getFixture(t)
	for _, in := range f.test[:50] {
		p := f.scout.PredictIncident(in)
		switch p.Verdict {
		case VerdictResponsible, VerdictNotResponsible:
			if p.Confidence < 0.5 || p.Confidence > 1 {
				t.Fatalf("confidence %v out of range", p.Confidence)
			}
			if p.Explanation == "" {
				t.Fatal("model verdicts must carry an explanation")
			}
			if len(p.Components) == 0 {
				t.Fatal("model verdicts must list the components examined")
			}
		case VerdictFallback:
			if p.Usable() {
				t.Fatal("fallback should not be usable")
			}
		}
	}
}

func TestExplanationOmitsComponentCounts(t *testing.T) {
	f := getFixture(t)
	for _, in := range f.test[:80] {
		p := f.scout.PredictIncident(in)
		if strings.Contains(p.Explanation, "ncomponents") {
			t.Fatalf("explanation leaks count features (§8): %s", p.Explanation)
		}
	}
}

func TestExcludeRuleShortCircuits(t *testing.T) {
	f := getFixture(t)
	p := f.scout.Predict("planned maintenance for rack", "tor1.c1.dc1 will be upgraded", nil, 1000)
	if p.Verdict != VerdictExcluded || p.Responsible {
		t.Fatalf("exclusion rule did not fire: %+v", p)
	}
}

func TestNoComponentsFallsBack(t *testing.T) {
	f := getFixture(t)
	p := f.scout.Predict("Customer cannot log in", "a customer reports being unable to log in to their account", nil, 1000)
	if p.Verdict != VerdictFallback {
		t.Fatalf("component gate did not fire: %+v", p)
	}
}

func TestMentionedComponentsAugmentText(t *testing.T) {
	f := getFixture(t)
	// Text has no names; the structured mention list supplies them.
	p := f.scout.Predict("Connectivity problem", "a tenant reports connection resets", []string{"tor1.c1.dc1"}, 1000)
	if p.Verdict == VerdictFallback {
		t.Fatal("structured mentions should rescue extraction")
	}
	found := false
	for _, c := range p.Components {
		if c == "tor1.c1.dc1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("mentioned component missing from %v", p.Components)
	}
}

func TestTrainErrors(t *testing.T) {
	f := getFixture(t)
	cfg, _ := ParseConfig(DefaultPhyNetConfig)
	if _, err := Train(TrainOptions{Config: cfg, Topology: f.gen.Topology(), Source: f.gen.Telemetry()}); err != ErrNoTrainingIncidents {
		t.Fatalf("want ErrNoTrainingIncidents, got %v", err)
	}
	if _, err := Train(TrainOptions{}); err == nil {
		t.Fatal("missing required options should error")
	}
}

func TestEvaluateSkipsFallback(t *testing.T) {
	f := getFixture(t)
	// An incident with no components must not count toward the confusion.
	in := &incident.Incident{
		ID: "X", Title: "vague", Body: "nothing specific",
		OwnerLabel: "PhyNet", CreatedAt: 500,
	}
	c := f.scout.Evaluate([]*incident.Incident{in})
	if c.Total() != 0 {
		t.Fatalf("fallback incidents must be skipped, got %s", c.String())
	}
}

func TestTopFeaturesNonEmpty(t *testing.T) {
	f := getFixture(t)
	top := f.scout.TopFeatures(5)
	if len(top) != 5 {
		t.Fatalf("top features: %v", top)
	}
}

func TestImputationOnDeprecatedDataset(t *testing.T) {
	f := getFixture(t)
	tel := f.gen.Telemetry()
	// Deprecate pingmesh; predictions must still work and accuracy must
	// not collapse (Figure 9 behaviour).
	tel.Deprecate("pingmesh")
	defer tel.Restore("pingmesh")
	c := f.scout.Evaluate(f.test)
	if c.F1() < 0.8 {
		t.Fatalf("losing one monitor should degrade gracefully, F1 = %v", c.F1())
	}
}

func TestFeatureLayoutExcludesVM(t *testing.T) {
	f := getFixture(t)
	for _, name := range f.scout.FeatureNames() {
		if strings.HasPrefix(name, "vm.") {
			t.Fatalf("PhyNet Scout should have no VM features (§5.2), found %s", name)
		}
	}
}
