package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"scouts/internal/cloudsim"
	"scouts/internal/faults"
	"scouts/internal/incident"
	"scouts/internal/ml/forest"
)

// The RF answer path as it read while the explanation ranked every feature
// to print three and formatted each with Sprintf: kept verbatim as the
// reference the one-buffer path is compared against. oldPredict is
// Scout.predict over oldExtract (extract_oracle_test.go), the text joined a
// second time for the selector, and these.

func (s *Scout) oldExplainRF(x []float64, label bool) string {
	_, contribs := s.rf.Explain(x)
	var tops []string
	for _, c := range contribs {
		if len(tops) == 3 {
			break
		}
		// Component-count features confuse operators even though the
		// model finds them useful (§8): keep them out of explanations.
		if strings.HasSuffix(c.Feature, ".ncomponents") {
			continue
		}
		tops = append(tops, fmt.Sprintf("%s (%+.3f)", c.Feature, c.Value))
	}
	direction := "points away from"
	if label {
		direction = "points to"
	}
	out := fmt.Sprintf("random forest %s %s", direction, s.cfg.Team)
	if len(tops) > 0 {
		out += "; strongest signals: " + strings.Join(tops, ", ")
	}
	out += ". Known false negatives: transient issues already resolved, symptoms not covered by monitoring, incidents too broad in scope."
	return out
}

func (s *Scout) oldPredictRF(x []float64, ex Extraction) Prediction {
	label, conf := s.rf.Predict(x)
	return Prediction{
		Verdict:     verdictFor(label),
		Responsible: label,
		Confidence:  conf,
		Model:       "rf",
		Components:  oldAll(ex),
		Explanation: s.oldExplainRF(x, label),
	}
}

func (s *Scout) oldPredict(title, body string, mentioned []string, t float64) Prediction {
	ex := s.fb.oldExtract(title, body, mentioned)
	if p, done := s.gatePrediction(ex); done {
		return p
	}
	if useCPD, pWrong := s.selector.UseCPD(title + "\n" + body); useCPD {
		h := s.sourceHealth(t)
		if p, bad := s.degradedPrediction(h, ex); bad {
			return p
		}
		p := s.predictCPDPath(&memo{ex: ex}, t, pWrong)
		p.Health = &h
		return p
	}
	v := s.getVec()
	defer s.putVec(v)
	h := s.featurizeWithImputationInto(v, &memo{ex: ex}, t)
	if p, bad := s.degradedPrediction(h, ex); bad {
		return p
	}
	p := s.oldPredictRF(*v, ex)
	p.Health = &h
	return p
}

// TestPredictMatchesOldPath: every field of every prediction of the fixture
// — verdict, confidence, components, explanation string, health — equals the
// old answer path's, single and batched, and both labels' explanations of
// every held-out vector do.
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
	compare := func(s *Scout, ins []*incident.Incident) {
		t.Helper()
		var reqs []BatchRequest
		var want []Prediction
		for _, in := range ins {
			w := s.oldPredict(in.Title, in.Body, in.InitialComponents, in.CreatedAt)
			got := s.Predict(in.Title, in.Body, in.InitialComponents, in.CreatedAt)
			if !reflect.DeepEqual(got, w) {
				t.Fatalf("incident %s:\nPredict %+v\nold     %+v", in.ID, got, w)
			}
			models[got.Model]++
			reqs = append(reqs, BatchRequest{Title: in.Title, Body: in.Body, Components: in.InitialComponents, Time: in.CreatedAt})
			want = append(want, w)
		}
		if got := s.PredictBatch(reqs); !reflect.DeepEqual(got, want) {
			t.Fatal("PredictBatch differs from the old answer path")
		}
	}
	compare(f.scout, append(append([]*incident.Incident(nil), f.train...), f.test...))
	compare(live, log.Incidents)
	if models["rf"] < 1000 || models["cpd+"] < 3 || models["none"] == 0 {
		t.Fatalf("predictions by model: %v", models)
	}
	s := f.scout
	signals := 0
	for _, in := range f.test {
		ex := s.fb.Extract(in.Title, in.Body, in.Components)
		if ex.Empty {
			continue
		}
		x := s.fb.Featurize(ex, in.CreatedAt)
		for _, label := range []bool{false, true} {
			got, w := s.explainRF(x, label), s.oldExplainRF(x, label)
			if got != w {
				t.Fatalf("incident %s: explainRF\n%q\nold\n%q", in.ID, got, w)
			}
			signals += strings.Count(got, " (")
		}
	}
	if signals < 1000 {
		t.Fatalf("only %d signals rendered", signals)
	}
}

// TestPredictAllocations pins the steady-state allocations of one prediction
// through the random forest over the breaker-wrapped simulator — the
// serving stack — stage by stage: the joined text 1, Extract 3 (the
// Extraction's map is two objects, its lists one array), the feature vector
// 0 (pooled, and carried by the pointer the pool holds, so returning it
// boxes nothing), the health report 1,
// Components 1, the explanation 1 — seven, and an eighth on the one
// prediction in some hundreds whose strongest signals tie and are read off
// the full ranking. The request's memo stays on its stack. The model selector
// adds nothing: live, it counts its words into a stack vector. The same call
// cost 47 while the explanation ranked and formatted and every extractor's
// matches, ancestors and seen-set were built per call.
func TestPredictAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	const budget = 8
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
	measured, most := 0, 0.0
	for _, in := range f.test[:60] {
		p := scout.PredictIncident(in) // grows the pooled scratch
		if p.Model != "rf" {
			continue
		}
		allocs := testing.AllocsPerRun(10, func() { scout.PredictIncident(in) })
		if allocs > budget {
			// A collection inside the window empties the pools, and ten
			// runs refill them: not the steady state. Measure again.
			allocs = testing.AllocsPerRun(10, func() { scout.PredictIncident(in) })
		}
		if allocs > budget {
			t.Errorf("incident %s: Predict allocates %v times in steady state, budget %d", in.ID, allocs, budget)
		}
		most = max(most, allocs)
		measured++
	}
	t.Logf("%d random-forest predictions, at most %v allocations each", measured, most)
	if measured < 30 {
		t.Fatalf("only %d random-forest predictions measured", measured)
	}
}
