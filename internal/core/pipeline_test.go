package core

import (
	"hash/fnv"
	"reflect"
	"strings"
	"sync"
	"testing"

	"scouts/internal/incident"
	"scouts/internal/ml/cpd"
)

// The join of the three answer paths (PR 25): PredictCached and
// PredictWithModel are callers of Scout.predict and answer what the
// hand-copied versions answered — verdict, label, confidence, model and
// components bit for bit — in the served wording. Each digest below was
// pinned beside the hand-copied path before it was deleted.

// halfCPD is a decider that sends about half of the incidents to CPD+, by a
// hash of the text, with a P(RF wrong) that varies: the fixture's own
// selector almost never leaves the forest.
type halfCPD struct{}

func (halfCPD) UseCPD(title, body string) (bool, float64) {
	h := fnv.New32a()
	h.Write([]byte(title + "\n" + body))
	v := h.Sum32()
	return v%2 == 0, float64(v%1000) / 1000
}

type alwaysCPD struct{}

func (alwaysCPD) UseCPD(_, _ string) (bool, float64) { return true, 0.75 }

// answerKind is an answer's model, and "cpd+ broad" for CPD+'s
// cluster-level model: what the coverage floors count.
func answerKind(p Prediction) string {
	if p.Model == "cpd+" && strings.Contains(p.Explanation(), "CPD+: cluster-level change-point model") {
		return "cpd+ broad"
	}
	return p.Model
}

func requireKinds(t *testing.T, seen map[string]int, kinds ...string) {
	t.Helper()
	for _, k := range kinds {
		if seen[k] == 0 {
			t.Errorf("no %q answer among %v", k, seen)
		}
	}
}

// TestPredictCachedMatchesOldPath: over the held-out incidents and two that
// stop at a gate, cold cache and then warm, under the fixture's selector
// and under one that uses both models, the memoised path answers what it
// answered as a copy; the warm pass answers what the cold one did.
func TestPredictCachedMatchesOldPath(t *testing.T) {
	f := getFixture(t)
	for _, tc := range []struct {
		name    string
		decider DeciderModel
		kinds   []string
		golden  string
	}{
		{"selector", nil, []string{"rf", "exclude-rule", "none"}, "8315bcb8ad4efabd632e9c897791204fef019bf08457c757b1fb711d2661d178"},
		{"half-cpd", halfCPD{}, []string{"rf", "cpd+", "cpd+ broad", "exclude-rule", "none"}, "c6de0415df583fdf4e269ccc676349d2eb03636af4825a088557315055696706"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := restoredOver(t, f, f.gen.Telemetry())
			s.SetDecider(tc.decider)
			cache := NewFeatureCache()
			seen := map[string]int{}
			d := newDigest()
			// Given its full component list no held-out incident stops at a
			// gate; these two do.
			ins := append([]*incident.Incident{
				{ID: "excluded", Title: "planned maintenance on " + f.test[0].Title, Body: f.test[0].Body, Components: f.test[0].Components, CreatedAt: f.test[0].CreatedAt},
				{ID: "no-components", Title: "customers report slow storage", Body: "no device named", CreatedAt: f.test[0].CreatedAt},
			}, f.test...)
			cold := make([]Prediction, len(ins))
			for pass := 0; pass < 2; pass++ { // cold, then every vector memoised
				for i, in := range ins {
					got := s.PredictCached(in, cache)
					d.prediction(got)
					seen[answerKind(got)]++
					if !got.HasHealth != (got.Model == "exclude-rule" || got.Model == "none") {
						t.Fatalf("%s: health report %v on a %q answer", in.ID, got.Health, got.Model)
					}
					if pass == 0 {
						cold[i] = plain(got)
					} else if !reflect.DeepEqual(plain(got), cold[i]) {
						t.Fatalf("%s:\n warm %+v\n cold %+v", in.ID, plain(got), cold[i])
					}
				}
			}
			if cacheLen(cache) != len(ins) {
				t.Fatalf("cache holds %d incidents, want %d", cacheLen(cache), len(ins))
			}
			requireKinds(t, seen, tc.kinds...)
			d.check(t, tc.name, tc.golden)
		})
	}
}

// TestPredictCachedMatchesOldPathConcurrent is the replay's shape: eight
// goroutines score the same incidents over one shared, initially cold cache
// (run under -race), and every answer is what one sequential pass over a
// cache of its own answers.
func TestPredictCachedMatchesOldPathConcurrent(t *testing.T) {
	f := getFixture(t)
	s := restoredOver(t, f, f.gen.Telemetry())
	s.SetDecider(halfCPD{})
	ins := f.test[:200]
	own := NewFeatureCache()
	want := make([]Prediction, len(ins))
	for i, in := range ins {
		want[i] = plain(s.PredictCached(in, own))
	}
	cache := NewFeatureCache()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range ins {
				i := (k + g*len(ins)/8) % len(ins) // staggered, so fills collide
				if got := plain(s.PredictCached(ins[i], cache)); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("%s:\n concurrent %+v\n sequential %+v", ins[i].ID, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if cacheLen(cache) != len(ins) {
		t.Fatalf("cache holds %d incidents, want %d", cacheLen(cache), len(ins))
	}
}

// TestPredictWithModelMatchesOldPath: a forced model answers what the copy
// answered, health report included.
func TestPredictWithModelMatchesOldPath(t *testing.T) {
	f := getFixture(t)
	for _, tc := range []struct{ model, golden string }{
		{"rf", "6462e5dcf10039ffb4d6d2991f09e751838e1a6c97010eec4fb31595bb075c18"},
		{"cpd+", "5a83f6ca3468d57d95393799a2365810ffb621f9476007d48b2513ada03c6704"},
	} {
		seen := map[string]int{}
		d := newDigest()
		for _, in := range f.test {
			got := f.scout.PredictWithModel(tc.model, in.Title, in.Body, in.InitialComponents, in.CreatedAt)
			d.prediction(got)
			seen[answerKind(got)]++
		}
		if tc.model == "rf" {
			requireKinds(t, seen, "rf", "none")
		} else {
			requireKinds(t, seen, "cpd+", "cpd+ broad", "none")
		}
		d.check(t, tc.model, tc.golden)
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
					if got.HasHealth && got.Health.ImputedSlots > 0 {
						imputed++
					}
					if strings.HasPrefix(got.Explanation(), "degraded monitoring: ") {
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
// the memo already holds a CPD+ vector some other Scout attached — and on
// some broad incident the rule's answer is not (false, 0.75).
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
	cache := NewFeatureCache()
	for _, in := range broad[:len(broad)/2] {
		// Half of the memos carry a vector before s ever sees them.
		full.PredictCached(in, cache)
	}
	drifted := 0
	for _, in := range broad {
		live := s.Predict(in.Title, in.Body, in.Components, in.CreatedAt)
		if !strings.Contains(live.Explanation(), "CPD+: no broad-incident model trained; conservative rule") {
			t.Fatalf("%s: served answer did not come from the narrow rule: %q", in.ID, live.Explanation())
		}
		for pass := 0; pass < 2; pass++ {
			if got := s.PredictCached(in, cache); !reflect.DeepEqual(got, live) {
				t.Fatalf("%s:\n memoised %+v\n served   %+v", in.ID, got, live)
			}
		}
		if live.Responsible || live.Confidence != 0.75 {
			drifted++
		}
	}
	t.Logf("%d broad incidents; the old memoised path's (false, 0.75) was wrong on %d", len(broad), drifted)
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
	p := s.predict(forcedModel(false), in.Title, in.Body, &m, in.CreatedAt)
	if p.Verdict != VerdictFallback || !strings.Contains(p.Explanation(), "feature vector has 3 features") {
		t.Fatalf("a three-slot memo answered %+v", p)
	}
}
