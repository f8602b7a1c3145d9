package core

import (
	"hash/fnv"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"scouts/internal/incident"
	"scouts/internal/ml/cpd"
)

// The join of the three answer paths (PR 25), against the paths as they
// read (pipeline_oracle_test.go): PredictCached and PredictWithModel are
// callers of Scout.predict now and must answer what the hand-copied versions
// answered — verdict, label, confidence, model and components bit for bit —
// with exactly the explanation differences listed in joinedExplanation.

// halfCPD is a decider that sends about half of the incidents to CPD+, by a
// hash of the text, with a P(RF wrong) that varies: the fixture's own
// selector almost never leaves the forest.
type halfCPD struct{}

func (halfCPD) UseCPD(doc string) (bool, float64) {
	h := fnv.New32a()
	h.Write([]byte(doc))
	v := h.Sum32()
	return v%2 == 0, float64(v%1000) / 1000
}

type alwaysCPD struct{}

func (alwaysCPD) UseCPD(string) (bool, float64) { return true, 0.75 }

// The served wording, as gatePrediction and predictCPDPath write it.
const (
	excludedWording = "an operator EXCLUDE rule marks this incident out of scope for "
	emptyWording    = "no components could be extracted from the incident; deferring to the legacy routing process"
	selectorPrefix  = "model selector flagged this as a new/rare incident (P(RF wrong)="
	oldCachedPrefix = "model selector flagged this as new/rare (P(RF wrong)="
	oldVectorWhy    = "cluster-level change-point model (cached vector)"
	broadWhy        = "cluster-level change-point model"
)

// joinedExplanation says whether got is what the old explanation may become
// under the join, and which of the permitted differences it was:
//
//	"same"       nothing changed (every random-forest answer);
//	"gate"       an excluded or component-less incident, which the copied
//	             gates answered without a word, gains the served wording;
//	"selector"   the memoised CPD+ path's own spelling of the selector
//	             prefix ("as new/rare") becomes the served one;
//	"signals"    the same, on a memoised broad answer, which also trades
//	             "(cached vector)" for its top signals (or for nothing, when
//	             no feature contributed);
//	"forced"     a forced CPD+ answer, which carried CPD+'s reason bare,
//	             gains the selector prefix at P(RF wrong)=1.00.
func joinedExplanation(team string, old, got Prediction) (kind string, ok bool) {
	switch {
	case got.Explanation == old.Explanation:
		return "same", true
	case old.Explanation == "" && old.Verdict == VerdictExcluded:
		return "gate", got.Explanation == excludedWording+team
	case old.Explanation == "" && old.Verdict == VerdictFallback:
		return "gate", got.Explanation == emptyWording
	case old.Model != "cpd+":
		return "", false
	case strings.HasPrefix(old.Explanation, oldCachedPrefix):
		want := selectorPrefix + strings.TrimPrefix(old.Explanation, oldCachedPrefix)
		if got.Explanation == want {
			return "selector", true
		}
		head, cached := strings.CutSuffix(want, oldVectorWhy)
		rest, ok := strings.CutPrefix(got.Explanation, head+broadWhy)
		return "signals", cached && ok && (rest == "" || strings.HasPrefix(rest, "; top signals: "))
	default:
		return "forced", got.Explanation == selectorPrefix+"1.00); CPD+: "+old.Explanation
	}
}

// sameAnswer compares what must not move, bit for bit.
func sameAnswer(old, got Prediction) bool {
	return got.Verdict == old.Verdict && got.Responsible == old.Responsible && got.Confidence == old.Confidence &&
		got.Model == old.Model && reflect.DeepEqual(got.Components, old.Components)
}

// checkJoined fails unless got is old's answer field for field and its
// explanation a permitted rewording; it returns the rewording's kind.
func checkJoined(t *testing.T, what string, team string, old, got Prediction) string {
	t.Helper()
	if !sameAnswer(old, got) {
		t.Fatalf("%s:\n new %+v\n old %+v", what, got, old)
	}
	kind, ok := joinedExplanation(team, old, got)
	if !ok {
		t.Fatalf("%s: explanation\n new %q\n old %q", what, got.Explanation, old.Explanation)
	}
	return kind
}

func requireKinds(t *testing.T, seen map[string]int, kinds ...string) {
	t.Helper()
	t.Logf("explanations: %v", seen)
	for _, k := range kinds {
		if seen[k] == 0 {
			t.Errorf("no answer exercised the %q rewording", k)
		}
	}
	for k := range seen {
		if !slices.Contains(kinds, k) {
			t.Errorf("unexpected rewording %q on this path (%d answers)", k, seen[k])
		}
	}
}

// TestPredictCachedMatchesOldPath: over the held-out incidents, cold cache
// and warm, under the fixture's selector and under one that uses both
// models, the memoised path answers what it answered as a copy.
func TestPredictCachedMatchesOldPath(t *testing.T) {
	f := getFixture(t)
	for _, tc := range []struct {
		name    string
		decider DeciderModel
		kinds   []string
	}{
		{"selector", nil, []string{"same", "gate"}},
		{"half-cpd", halfCPD{}, []string{"same", "gate", "selector", "signals"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := restoredOver(t, f, f.gen.Telemetry())
			s.SetDecider(tc.decider)
			cache, oldCache := NewFeatureCache(), newOldFeatureCache()
			seen := map[string]int{}
			// Given its full component list no held-out incident stops at a
			// gate; these two do.
			ins := append([]*incident.Incident{
				{ID: "excluded", Title: "planned maintenance on " + f.test[0].Title, Body: f.test[0].Body, Components: f.test[0].Components, CreatedAt: f.test[0].CreatedAt},
				{ID: "no-components", Title: "customers report slow storage", Body: "no device named", CreatedAt: f.test[0].CreatedAt},
			}, f.test...)
			for pass := 0; pass < 2; pass++ { // cold, then every vector memoised
				for _, in := range ins {
					old := s.oldPredictCached(in, oldCache)
					got := s.PredictCached(in, cache)
					seen[checkJoined(t, in.ID, s.Team(), old, got)]++
					if (got.Health == nil) != (got.Model == "exclude-rule" || got.Model == "none") {
						t.Fatalf("%s: health report %v on a %q answer", in.ID, got.Health, got.Model)
					}
				}
			}
			if cache.Len() != oldCache.Len() {
				t.Fatalf("cache holds %d incidents, the old one %d", cache.Len(), oldCache.Len())
			}
			requireKinds(t, seen, tc.kinds...)
		})
	}
}

// TestPredictCachedMatchesOldPathConcurrent is the replay's shape: eight
// goroutines score the same incidents over one shared, initially cold cache
// (run under -race), and every answer is the sequential oracle's.
func TestPredictCachedMatchesOldPathConcurrent(t *testing.T) {
	f := getFixture(t)
	s := restoredOver(t, f, f.gen.Telemetry())
	s.SetDecider(halfCPD{})
	ins := f.test[:200]
	oldCache := newOldFeatureCache()
	want := make([]Prediction, len(ins))
	for i, in := range ins {
		want[i] = s.oldPredictCached(in, oldCache)
	}
	cache := NewFeatureCache()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range ins {
				i := (k + g*len(ins)/8) % len(ins) // staggered, so fills collide
				got := s.PredictCached(ins[i], cache)
				if !sameAnswer(want[i], got) {
					t.Errorf("%s:\n new %+v\n old %+v", ins[i].ID, got, want[i])
					return
				}
				if _, ok := joinedExplanation(s.Team(), want[i], got); !ok {
					t.Errorf("%s: explanation\n new %q\n old %q", ins[i].ID, got.Explanation, want[i].Explanation)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if cache.Len() != len(ins) {
		t.Fatalf("cache holds %d incidents, want %d", cache.Len(), len(ins))
	}
}

// TestPredictWithModelMatchesOldPath: a forced model answers what the copy
// answered, health report included.
func TestPredictWithModelMatchesOldPath(t *testing.T) {
	f := getFixture(t)
	for _, model := range []string{"rf", "cpd+"} {
		seen := map[string]int{}
		for _, in := range f.test {
			old := f.scout.oldPredictWithModel(model, in.Title, in.Body, in.InitialComponents, in.CreatedAt)
			got := f.scout.PredictWithModel(model, in.Title, in.Body, in.InitialComponents, in.CreatedAt)
			seen[checkJoined(t, model+" "+in.ID, f.scout.Team(), old, got)]++
			if !reflect.DeepEqual(got.Health, old.Health) {
				t.Fatalf("%s %s: health %+v, old %+v", model, in.ID, got.Health, old.Health)
			}
		}
		if model == "rf" {
			requireKinds(t, seen, "same", "gate")
		} else {
			requireKinds(t, seen, "gate", "forced")
		}
	}
}

// TestPredictCachedIsTheServedPipeline is what the join is for (guarded
// retraining scores candidates through the replay path): given the
// components the memo extracts from, PredictCached and Predict are the same
// answer in every field — explanation and health report too — cold and
// warm, with a degradation policy in force, and under a source that is
// missing a whole feature group, where both impute.
func TestPredictCachedIsTheServedPipeline(t *testing.T) {
	f := getFixture(t)
	dark := f.scout.fb.groups[0]
	var darkNames []string
	for _, d := range dark.datasets {
		darkNames = append(darkNames, d.Name)
	}
	outage, _ := restoreAgainst(t, f, blackoutAll(darkNames), 1)
	outage.SetDecider(halfCPD{})
	strict, _ := restoreAgainst(t, f, blackoutAll(darkNames), 1)
	strict.SetDecider(halfCPD{})
	strict.SetDegradationPolicy(DegradationPolicy{MinCoverage: 0.99})
	healthy := restoredOver(t, f, f.gen.Telemetry())
	healthy.SetDecider(halfCPD{})
	for _, tc := range []struct {
		name  string
		scout *Scout
	}{{"healthy", healthy}, {"outage", outage}, {"outage-policy", strict}} {
		t.Run(tc.name, func(t *testing.T) {
			s, cache := tc.scout, NewFeatureCache()
			imputed, degraded := 0, 0
			for pass := 0; pass < 2; pass++ {
				for _, in := range f.test[:300] {
					live := s.Predict(in.Title, in.Body, in.Components, in.CreatedAt)
					got := s.PredictCached(in, cache)
					if !reflect.DeepEqual(got, live) {
						t.Fatalf("%s:\n memoised %+v\n served   %+v", in.ID, got, live)
					}
					if got.Health != nil && got.Health.ImputedSlots > 0 {
						imputed++
					}
					if strings.HasPrefix(got.Explanation, "degraded monitoring: ") {
						degraded++
					}
				}
			}
			if (imputed > 0) != (s != healthy) || (degraded > 0) != (s == strict) {
				t.Fatalf("%d imputed answers, %d degraded ones", imputed, degraded)
			}
		})
	}
}

// TestNoBroadForestLiveEqualsMemoised is the case the drift hid. A Scout
// whose CPD+ never saw a broad training incident has no cluster-level
// forest; the served path answers a broad incident by the narrow rule, and
// the memoised copy answered (false, 0.75) from cpd.Plus.PredictVector's own
// nil-forest branch. Joined, both paths give the rule's answer — also when
// the memo already holds a CPD+ vector some other Scout attached.
func TestNoBroadForestLiveEqualsMemoised(t *testing.T) {
	f := getFixture(t)
	full := restoredOver(t, f, f.gen.Telemetry())
	full.SetDecider(alwaysCPD{})
	s := restoredOver(t, f, f.gen.Telemetry())
	s.SetDecider(alwaysCPD{})
	params, broadRF := s.cpdPlus.Parts()
	if broadRF == nil {
		t.Fatal("the fixture's CPD+ has no broad forest to remove")
	}
	s.cpdPlus, _ = cpd.PlusFromParts(params, nil)

	var broad []*incident.Incident
	for _, in := range f.test {
		if ex := s.fb.Extract(in.Title, in.Body, in.Components); ex.Broad && !ex.Excluded && !ex.Empty {
			broad = append(broad, in)
		}
	}
	if len(broad) < 20 {
		t.Fatalf("only %d broad incidents in the fixture", len(broad))
	}
	cache, oldCache := NewFeatureCache(), newOldFeatureCache()
	for _, in := range broad[:len(broad)/2] {
		// Half of the memos carry a vector before s ever sees them.
		full.PredictCached(in, cache)
		full.oldPredictCached(in, oldCache)
	}
	drifted := 0
	for _, in := range broad {
		live := s.Predict(in.Title, in.Body, in.Components, in.CreatedAt)
		if !strings.Contains(live.Explanation, "CPD+: no broad-incident model trained; conservative rule") {
			t.Fatalf("%s: served answer did not come from the narrow rule: %q", in.ID, live.Explanation)
		}
		for pass := 0; pass < 2; pass++ {
			if got := s.PredictCached(in, cache); !reflect.DeepEqual(got, live) {
				t.Fatalf("%s:\n memoised %+v\n served   %+v", in.ID, got, live)
			}
		}
		if old := s.oldPredictCached(in, oldCache); old.Responsible != live.Responsible || old.Confidence != live.Confidence {
			if old.Responsible || old.Confidence != 0.75 {
				t.Fatalf("%s: the old copy answered %+v", in.ID, old)
			}
			drifted++
		}
	}
	t.Logf("%d broad incidents; the old memoised path disagreed with the served one on %d", len(broad), drifted)
	if drifted == 0 {
		t.Fatal("no broad incident shows the drift this test exists for")
	}
}

// TestMemoOfAnotherLayoutFallsBack: a memoised vector from a different
// feature layout is turned away at the Scout boundary — also when a whole
// group is down and imputation would otherwise index past its end.
func TestMemoOfAnotherLayoutFallsBack(t *testing.T) {
	f := getFixture(t)
	s, _ := restoreAgainst(t, f, blackoutAll(f.scout.Builder().DatasetNames()), 1)
	in := modelIncident(t, f)
	m := memo{ex: s.fb.Extract(in.Title, in.Body, in.Components), x: []float64{1, 2, 3}}
	p := s.predict(forcedModel(false), in.Text(), &m, in.CreatedAt)
	if p.Verdict != VerdictFallback || !strings.Contains(p.Explanation, "feature vector has 3 features") {
		t.Fatalf("a three-slot memo answered %+v", p)
	}
}
