package core

import (
	"context"
	"reflect"
	"testing"

	"scouts/internal/faults"
	"scouts/internal/incident"
)

// batchScouts is the fixture's Scout over the raw simulator and restored
// over the serving stack's breaker-wrapped one: a batch fans its items out
// over the cores, so on the second its concurrent pulls share one breaker.
func batchScouts(t *testing.T, f *fixture) map[string]*Scout {
	t.Helper()
	return map[string]*Scout{
		"raw":     f.scout,
		"breaker": restoredOver(t, f, faults.NewBreaker(f.gen.Telemetry(), faults.BreakerParams{})),
	}
}

// TestPredictBatchMatchesSingle pins the batch contract: PredictBatch
// answers exactly — verdict, confidence, components, explanation — what
// Predict answers per item, across all model paths (exclude rule,
// component-gate fallback, CPD+ and RF), though its items are scored in
// parallel.
func TestPredictBatchMatchesSingle(t *testing.T) {
	f := getFixture(t)
	// Clipped, so the synthetics appended below cannot overwrite the shared
	// fixture's held-out incidents 120 and 121 for the tests that follow.
	ins := f.test[:120:120]
	// Append gate-exercising synthetics so the batch mixes every path.
	ins = append(ins,
		&incident.Incident{ID: "excl", Title: "planned maintenance for rack", Body: "tor1.c1.dc1 will be upgraded", CreatedAt: 1000},
		&incident.Incident{ID: "empty", Title: "Customer cannot log in", Body: "nothing specific", CreatedAt: 1000},
	)
	singles := make([]Prediction, len(ins))
	for i, in := range ins {
		singles[i] = f.scout.PredictIncident(in)
	}
	for name, scout := range batchScouts(t, f) {
		batch := scout.PredictBatch(incidentRequests(ins))
		if len(batch) != len(ins) {
			t.Fatalf("%s: batch answered %d of %d items", name, len(batch), len(ins))
		}
		for i, in := range ins {
			if !reflect.DeepEqual(batch[i], singles[i]) {
				t.Fatalf("%s: incident %s: batch %+v != single %+v", name, in.ID, batch[i], singles[i])
			}
		}
		if out := scout.PredictBatch(nil); len(out) != 0 {
			t.Fatalf("%s: empty batch should answer empty, got %v", name, out)
		}
	}
}

// TestPredictBatchConcurrent exercises the vector pool under concurrent
// batches (run under -race): pooled vectors must never be shared between
// in-flight predictions.
func TestPredictBatchConcurrent(t *testing.T) {
	f := getFixture(t)
	ins := f.test[:60]
	want := f.scout.PredictBatch(incidentRequests(ins))
	for name, scout := range batchScouts(t, f) {
		done := make(chan []Prediction, 4)
		for g := 0; g < 4; g++ {
			go func() { done <- scout.PredictBatch(incidentRequests(ins)) }()
		}
		for g := 0; g < 4; g++ {
			got := <-done
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: concurrent batches diverged", name)
			}
		}
	}
}

// orderObserver records the predictions it is shown, in the order shown.
// It is deliberately unsynchronized: the batch scorer promises to call the
// observer from one goroutine, after the parallel scoring, and the race
// detector holds it to that.
type orderObserver struct {
	ctx  context.Context
	seen []Prediction
}

func (o *orderObserver) ObservePrediction(ctx context.Context, p Prediction) {
	o.ctx = ctx
	o.seen = append(o.seen, p)
}

// TestPredictBatchObserverOrder: the installed observer sees every item of
// a parallel batch exactly once, in index order, under the batch's context.
func TestPredictBatchObserverOrder(t *testing.T) {
	f := getFixture(t)
	s := restoredOver(t, f, f.gen.Telemetry())
	obs := &orderObserver{}
	s.SetObserver(obs)
	reqs := incidentRequests(f.test[:100])
	type ctxKey struct{}
	ctx := context.WithValue(context.Background(), ctxKey{}, "batch")
	out := s.PredictBatchCtx(ctx, reqs)
	if len(obs.seen) != len(out) {
		t.Fatalf("observer called %d times for %d items", len(obs.seen), len(out))
	}
	// An answer's Components are its own extraction's array: the same
	// array is the same answer.
	for i := range out {
		seen := obs.seen[i]
		if !reflect.DeepEqual(seen, out[i]) || len(seen.Components) > 0 && &seen.Components[0] != &out[i].Components[0] {
			t.Fatalf("observer call %d was not shown item %d", i, i)
		}
	}
	if obs.ctx != ctx {
		t.Fatal("observer did not receive the batch's context")
	}
}

// TestPredictRFBoundaryGuard covers the Scout-boundary dimension check: a
// cached vector from a different feature layout defers to legacy routing
// instead of panicking in tree traversal.
func TestPredictRFBoundaryGuard(t *testing.T) {
	f := getFixture(t)
	p := f.scout.predictRF([]float64{1, 2, 3}, &Extraction{})
	if p.Verdict != VerdictFallback || p.Usable() {
		t.Fatalf("mismatched vector should fall back, got %+v", p)
	}
	if p.Explanation() == "" {
		t.Fatal("boundary rejection should explain itself")
	}
}
