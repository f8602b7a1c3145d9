package core

import (
	"bytes"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"scouts/internal/cloudsim"
)

func TestFeatureCacheNilSafe(t *testing.T) {
	f := getFixture(t)
	in := f.test[0]
	var c *FeatureCache
	ex := f.scout.fb.Extract(in.Title, in.Body, in.Components)
	if m := c.memo(f.scout.fb, in); !reflect.DeepEqual(m.ex, ex) {
		t.Fatalf("nil cache extraction = %+v, want %+v", m.ex, ex)
	}
	if x := c.Features(f.scout.fb, in); !reflect.DeepEqual(x, f.scout.fb.Featurize(ex, in.CreatedAt)) {
		t.Fatalf("nil cache vector = %v", x)
	}
	if a, b := c.memo(f.scout.fb, in), c.memo(f.scout.fb, in); a == b {
		t.Fatal("nil cache kept a memo")
	}
	if c.Len() != 0 {
		t.Fatal("nil cache should be empty")
	}
	if got := f.scout.PredictCached(in, nil); !reflect.DeepEqual(got, f.scout.Predict(in.Title, in.Body, in.Components, in.CreatedAt)) {
		t.Fatalf("PredictCached over a nil cache = %+v", got)
	}
}

func TestFeatureCacheFirstWriterWins(t *testing.T) {
	f := getFixture(t)
	in := f.test[0]
	c := NewFeatureCache()
	m := c.memo(f.scout.fb, in)
	m.cpdVector(func() []float64 { return []float64{9} })
	// A second fill of the same id must hand back the incumbent, CPD+
	// vector attached.
	again := c.memo(f.scout.fb, in)
	if again != m || c.Len() != 1 {
		t.Fatalf("second fill made a second memo (%p, %p; %d cached)", m, again, c.Len())
	}
	// cpdVector is likewise first-write-wins, returns the canonical slice
	// and does not compute again.
	got := again.cpdVector(func() []float64 { t.Fatal("recomputed a memoised CPD vector"); return nil })
	if got[0] != 9 {
		t.Fatalf("canonical CPD vector = %v", got)
	}
	// A loser of the attach race adopts the winner's vector.
	raced := memo{cpdX: new(atomic.Pointer[[]float64])}
	lost := raced.cpdVector(func() []float64 {
		raced.cpdVector(func() []float64 { return []float64{1} }) // the other worker finishes first
		return []float64{2}
	})
	if lost[0] != 1 {
		t.Fatalf("the second vector attached replaced the first: %v", lost)
	}
}

// TestFeatureCacheConcurrent hammers one cache from many goroutines with
// overlapping ids; run under -race this is the regression test for the
// unsynchronized map the cache once was, and for the fill's lost race:
// every goroutine must end up with the one memo, and the one CPD+ vector,
// per incident.
func TestFeatureCacheConcurrent(t *testing.T) {
	f := getFixture(t)
	ins := f.test[:100]
	c := NewFeatureCache()
	const goroutines = 16
	memos := make([][]*memo, goroutines)
	vecs := make([][][]float64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, in := range ins {
				m := c.memo(f.scout.fb, in)
				memos[g] = append(memos[g], m)
				// Every worker proposes its own slice (same id-derived
				// head, as real featurization is deterministic).
				vecs[g] = append(vecs[g], m.cpdVector(func() []float64 { return []float64{float64(i), float64(g)} }))
			}
		}(g)
	}
	wg.Wait()
	if c.Len() != len(ins) {
		t.Fatalf("cache holds %d entries, want %d", c.Len(), len(ins))
	}
	for i, in := range ins {
		for g := 1; g < goroutines; g++ {
			if memos[g][i] != memos[0][i] {
				t.Fatalf("%s: goroutines hold different memos", in.ID)
			}
			if &vecs[g][i][0] != &vecs[0][i][0] || vecs[g][i][0] != float64(i) {
				t.Fatalf("%s: goroutines hold different CPD vectors: %v, %v", in.ID, vecs[g][i], vecs[0][i])
			}
		}
	}
}

// TestPredictCachedConcurrent runs many concurrent PredictCached callers
// over one shared cache (the serving/replay hot path) and checks every
// parallel answer against a sequential baseline. Under -race this covers
// the old bug where PredictCached wrote e.cpdX on a shared entry without
// holding the cache lock.
func TestPredictCachedConcurrent(t *testing.T) {
	f := getFixture(t)
	ins := f.test[:120]
	cache := NewFeatureCache()
	want := make([]Prediction, len(ins))
	for i, in := range ins {
		want[i] = f.scout.PredictCached(in, cache)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, in := range ins {
				got := f.scout.PredictCached(in, cache)
				if got.Verdict != want[i].Verdict || got.Responsible != want[i].Responsible ||
					got.Confidence != want[i].Confidence {
					t.Errorf("incident %s: concurrent %+v != sequential %+v", in.ID, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()

	// A second cold cache must reproduce the same answers: caching is an
	// optimization, never an input.
	fresh := NewFeatureCache()
	for i, in := range ins {
		got := f.scout.PredictCached(in, fresh)
		if got.Verdict != want[i].Verdict || got.Confidence != want[i].Confidence {
			t.Fatalf("incident %s: cold-cache prediction differs", in.ID)
		}
	}
}

// TestTrainWorkersSnapshotIdentical is the tentpole determinism guarantee:
// training with one worker and with eight must produce byte-identical
// snapshots (seeds are pre-drawn in tree order, importances merged in tree
// order, CPD+ examples selected sequentially).
func TestTrainWorkersSnapshotIdentical(t *testing.T) {
	gen := cloudsim.New(cloudsim.Params{Seed: 3, Days: 40, IncidentsPerDay: 8})
	log := gen.Generate()
	cfg, err := ParseConfig(DefaultPhyNetConfig)
	if err != nil {
		t.Fatal(err)
	}
	train := func(workers int) []byte {
		t.Helper()
		s, err := Train(TrainOptions{
			Config:    cfg,
			Topology:  gen.Topology(),
			Source:    gen.Telemetry(),
			Incidents: log.Incidents,
			Seed:      11,
			Workers:   workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		snap, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	seq := train(1)
	par := train(8)
	if !bytes.Equal(seq, par) {
		t.Fatalf("snapshots differ between workers=1 (%d bytes) and workers=8 (%d bytes)",
			len(seq), len(par))
	}
}

// TestEvaluateWorkersIdentical checks the evaluation fan-out: the confusion
// matrix must not depend on the worker count.
func TestEvaluateWorkersIdentical(t *testing.T) {
	f := getFixture(t)
	seq := f.scout.EvaluateWorkers(f.test, 1)
	par := f.scout.EvaluateWorkers(f.test, 8)
	if seq != par {
		t.Fatalf("confusion differs: workers=1 %s vs workers=8 %s", seq.String(), par.String())
	}
}
