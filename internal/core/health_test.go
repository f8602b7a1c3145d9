package core

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"scouts/internal/faults"
	"scouts/internal/incident"
)

// restoreAgainst rebinds the shared fixture's trained Scout to another
// data source through the snapshot path (the registry is identical, so
// the trained layout survives).
func restoreAgainst(t *testing.T, f *fixture, sched faults.Schedule, seed int64) (*Scout, *faults.Chaos) {
	t.Helper()
	snap, err := f.scout.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	chaos := faults.NewChaos(f.gen.Telemetry(), sched, seed)
	s, err := Restore(snap, f.gen.Topology(), chaos)
	if err != nil {
		t.Fatal(err)
	}
	return s, chaos
}

// blackoutAll darkens every named dataset for all time.
func blackoutAll(names []string) faults.Schedule {
	var bs []faults.Blackout
	for _, n := range names {
		bs = append(bs, faults.Blackout{Dataset: n, Start: 0, End: faults.Forever})
	}
	return faults.Schedule{Blackouts: bs}
}

// modelIncident returns a test incident that reaches a model (neither
// excluded nor component-less).
func modelIncident(t *testing.T, f *fixture) *incident.Incident {
	t.Helper()
	for _, in := range f.test {
		ex := f.scout.fb.Extract(in.Title, in.Body, in.InitialComponents)
		if !ex.Excluded && !ex.Empty {
			return in
		}
	}
	t.Fatal("no model-path incident in the fixture")
	return nil
}

func TestImputationUnderFullOutage(t *testing.T) {
	f := getFixture(t)
	s, _ := restoreAgainst(t, f, blackoutAll(f.scout.Builder().DatasetNames()), 1)
	in := modelIncident(t, f)
	ex := s.fb.Extract(in.Title, in.Body, in.InitialComponents)

	v := s.getVec()
	defer s.putVec(v)
	h := s.featurizeWithImputationInto(v, &memo{ex: ex}, in.CreatedAt)
	x := *v

	wantImputed := 0
	for _, g := range s.fb.groups {
		for _, slot := range s.fb.groupSlots[g.name] {
			if x[slot] != s.trainMeans[slot] {
				t.Fatalf("slot %d (%s) = %v, want training mean %v",
					slot, s.fb.names[slot], x[slot], s.trainMeans[slot])
			}
		}
		wantImputed += len(s.fb.groupSlots[g.name])
	}
	if h.ImputedSlots != wantImputed {
		t.Fatalf("ImputedSlots = %d, want %d", h.ImputedSlots, wantImputed)
	}
	if h.TotalSlots != len(s.fb.names) {
		t.Fatalf("TotalSlots = %d, want %d", h.TotalSlots, len(s.fb.names))
	}
	if len(h.DatasetsDown) != h.DatasetsTotal || h.DatasetsTotal != s.fb.datasetCount() {
		t.Fatalf("down %d of %d datasets, want all %d",
			len(h.DatasetsDown), h.DatasetsTotal, s.fb.datasetCount())
	}
	if h.Coverage() >= 1 || h.DatasetCoverage() != 0 {
		t.Fatalf("coverage = %v, dataset coverage = %v under a full outage",
			h.Coverage(), h.DatasetCoverage())
	}
}

func TestImputationUnderPartialOutage(t *testing.T) {
	f := getFixture(t)
	// Darken exactly one feature group (all of its datasets) so its slots —
	// and only its slots — get training means.
	darkGroup := f.scout.fb.groups[0]
	var names []string
	for _, d := range darkGroup.datasets {
		names = append(names, d.Name)
	}
	s, _ := restoreAgainst(t, f, blackoutAll(names), 1)
	clean, _ := restoreAgainst(t, f, faults.Schedule{}, 1)

	in := modelIncident(t, f)
	ex := s.fb.Extract(in.Title, in.Body, in.InitialComponents)
	v, vClean := s.getVec(), clean.getVec()
	defer s.putVec(v)
	defer clean.putVec(vClean)
	h := s.featurizeWithImputationInto(v, &memo{ex: ex}, in.CreatedAt)
	hClean := clean.featurizeWithImputationInto(vClean, &memo{ex: ex}, in.CreatedAt)
	x, want := *v, *vClean

	imputed := map[int]bool{}
	for _, slot := range s.fb.groupSlots[darkGroup.name] {
		imputed[slot] = true
		if x[slot] != s.trainMeans[slot] {
			t.Fatalf("dark slot %d (%s) = %v, want training mean %v",
				slot, s.fb.names[slot], x[slot], s.trainMeans[slot])
		}
	}
	for i := range x {
		if !imputed[i] && x[i] != want[i] {
			t.Fatalf("live slot %d (%s) = %v, clean featurization says %v",
				i, s.fb.names[i], x[i], want[i])
		}
	}
	if h.ImputedSlots != len(s.fb.groupSlots[darkGroup.name]) {
		t.Fatalf("ImputedSlots = %d, want %d", h.ImputedSlots, len(s.fb.groupSlots[darkGroup.name]))
	}
	if len(h.DatasetsDown) != len(names) {
		t.Fatalf("DatasetsDown = %v, want the %d darkened datasets", h.DatasetsDown, len(names))
	}
	if hClean.ImputedSlots != 0 || len(hClean.DatasetsDown) != 0 {
		t.Fatalf("clean source reported degradation: %+v", hClean)
	}
}

func TestBatchMatchesSingleUnderChaos(t *testing.T) {
	f := getFixture(t)
	// NaN-heavy corruption plus a partial blackout: the batch path must
	// answer exactly what the single path answers, health reports included.
	names := f.scout.Builder().DatasetNames()
	sched := faults.Schedule{
		Blackouts: []faults.Blackout{{Dataset: names[0], Start: 0, End: faults.Forever}},
	}
	for _, n := range names[1:] {
		sched.Corruptions = append(sched.Corruptions,
			faults.Corruption{Dataset: n, Start: 0, End: faults.Forever, NaNProb: 0.5, SpikeProb: 0.2})
	}
	s, _ := restoreAgainst(t, f, sched, 99)

	ins := f.test[:40]
	reqs := make([]BatchRequest, len(ins))
	for i, in := range ins {
		reqs[i] = BatchRequest{Title: in.Title, Body: in.Body, Components: in.InitialComponents, Time: in.CreatedAt}
	}
	batch := s.PredictBatch(reqs)
	for i, in := range ins {
		single := s.Predict(in.Title, in.Body, in.InitialComponents, in.CreatedAt)
		if !reflect.DeepEqual(batch[i], single) {
			t.Fatalf("incident %s: batch %+v != single %+v", in.ID, batch[i], single)
		}
		if single.Health != nil {
			if f := single.Health.ImputedFraction(); math.IsNaN(f) || f < 0 || f > 1 {
				t.Fatalf("imputed fraction %v out of range", f)
			}
		}
	}
}

func TestDegradationPolicyFallsBack(t *testing.T) {
	f := getFixture(t)
	s, _ := restoreAgainst(t, f, blackoutAll(f.scout.Builder().DatasetNames()), 1)
	in := modelIncident(t, f)

	// Zero policy: the Scout still answers from training means (the
	// pre-policy behavior).
	p := s.Predict(in.Title, in.Body, in.InitialComponents, in.CreatedAt)
	if !p.Usable() {
		t.Fatalf("disabled policy must keep answering, got %+v", p)
	}
	if p.Health == nil || p.Health.DatasetCoverage() != 0 {
		t.Fatalf("model verdict should carry the outage in its health report: %+v", p.Health)
	}

	s.SetDegradationPolicy(DegradationPolicy{MinCoverage: 0.5})
	p = s.Predict(in.Title, in.Body, in.InitialComponents, in.CreatedAt)
	if p.Verdict != VerdictFallback || p.Usable() {
		t.Fatalf("full outage under MinCoverage=0.5 must fall back, got %+v", p)
	}
	if !strings.Contains(p.Explanation, "degraded monitoring") {
		t.Fatalf("fallback should explain the degradation: %s", p.Explanation)
	}
	if p.Health == nil {
		t.Fatal("degraded fallback must carry its health report")
	}

	// The batch path degrades identically.
	b := s.PredictBatch([]BatchRequest{{Title: in.Title, Body: in.Body, Components: in.InitialComponents, Time: in.CreatedAt}})
	if !reflect.DeepEqual(b[0], p) {
		t.Fatalf("batch degradation %+v != single %+v", b[0], p)
	}
}

func TestDegradationPolicyStaleness(t *testing.T) {
	f := getFixture(t)
	var st []faults.Staleness
	for _, n := range f.scout.Builder().DatasetNames() {
		st = append(st, faults.Staleness{Dataset: n, Start: 0, End: faults.Forever, Lag: 10})
	}
	s, _ := restoreAgainst(t, f, faults.Schedule{Stalenesses: st}, 1)
	in := modelIncident(t, f)

	p := s.Predict(in.Title, in.Body, in.InitialComponents, in.CreatedAt)
	if p.Health == nil || p.Health.MaxStaleness != 10 {
		t.Fatalf("health should admit the 10h lag: %+v", p.Health)
	}
	if !p.Usable() {
		t.Fatal("staleness without a policy must not block answers")
	}

	s.SetDegradationPolicy(DegradationPolicy{MaxStaleness: 5})
	p = s.Predict(in.Title, in.Body, in.InitialComponents, in.CreatedAt)
	if p.Verdict != VerdictFallback {
		t.Fatalf("10h lag over a 5h ceiling must fall back, got %+v", p)
	}
}
