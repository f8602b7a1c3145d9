package core

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"scouts/internal/faults"
	"scouts/internal/monitoring"
)

// restoredOver rebuilds the fixture's Scout over another source with the
// same registry, the way a serving replica loads a published model.
func restoredOver(t *testing.T, f *fixture, source monitoring.DataSource) *Scout {
	t.Helper()
	snap, err := f.scout.SnapshotPack()
	if err != nil {
		t.Fatal(err)
	}
	s, err := Restore(snap, f.gen.Topology(), source)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func assertNoTrips(t *testing.T, b *faults.Breaker) {
	t.Helper()
	for _, d := range b.Datasets() {
		if n := b.Trips(d.Name); n != 0 {
			t.Errorf("breaker %q opened %d times over healthy telemetry", d.Name, n)
		}
	}
}

// TestBreakerNoFalseTripConcurrent pins the bug the coverage plan fixes.
// While featurization queried every dataset about every contributor, the
// pairs a dataset does not cover came back empty by construction, the
// breaker counted each as a failed window, and the routine streaks of
// concurrent callers interleaved past Trip on perfectly healthy data:
// breakers opened and answers changed. Under the plan only covered pairs
// are queried, so eight callers over one breaker open nothing and answer
// exactly what one caller answers.
func TestBreakerNoFalseTripConcurrent(t *testing.T) {
	f := getFixture(t)
	single := restoredOver(t, f, faults.NewBreaker(f.gen.Telemetry(), faults.BreakerParams{}))
	want := make([]Prediction, len(f.test))
	for i, in := range f.test {
		want[i] = single.PredictIncident(in)
	}

	b := faults.NewBreaker(f.gen.Telemetry(), faults.BreakerParams{})
	s := restoredOver(t, f, b)
	const callers = 8
	got := make([][]Prediction, callers)
	var wg sync.WaitGroup
	for c := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]Prediction, len(f.test))
			for i, in := range f.test {
				out[i] = s.PredictIncident(in)
			}
			got[c] = out
		}()
	}
	wg.Wait()
	assertNoTrips(t, b)
	for c := range got {
		for i := range want {
			if !reflect.DeepEqual(got[c][i], want[i]) {
				t.Fatalf("caller %d of %d, incident %s: %+v over the shared breaker, %+v from one caller",
					c, callers, f.test[i].ID, got[c][i], want[i])
			}
		}
	}
}

// TestBreakerLowTripSingleCaller is the same bug without concurrency: at
// Trip 4 a one-cluster incident used to open pingmesh's breaker on the
// cluster's own switches (four contributors pingmesh does not cover, queried
// back to back). A streak now counts real emptiness only.
func TestBreakerLowTripSingleCaller(t *testing.T) {
	f := getFixture(t)
	b := faults.NewBreaker(f.gen.Telemetry(), faults.BreakerParams{Trip: 4})
	s := restoredOver(t, f, b)
	for _, in := range f.test {
		got, want := s.PredictIncident(in), f.scout.PredictIncident(in)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("incident %s: %+v at Trip 4, %+v over the raw source", in.ID, got, want)
		}
	}
	assertNoTrips(t, b)
}

// emptyCounter counts the pulls that come back with nothing, forwarding all
// three capabilities of the simulator underneath.
type emptyCounter struct {
	monitoring.DataSource
	stats  monitoring.StatsSource
	series monitoring.SeriesAppender

	appends, emptyAppends atomic.Int64
	stat, failedStats     atomic.Int64
}

func (c *emptyCounter) AppendSeries(dst []float64, dataset, component string, from, to float64) []float64 {
	n := len(dst)
	dst = c.series.AppendSeries(dst, dataset, component, from, to)
	c.appends.Add(1)
	if len(dst) == n {
		c.emptyAppends.Add(1)
	}
	return dst
}

func (c *emptyCounter) WindowStats(dataset, component string, from, to float64) (monitoring.Stats, bool) {
	st, ok := c.stats.WindowStats(dataset, component, from, to)
	c.stat.Add(1)
	if !ok {
		c.failedStats.Add(1)
	}
	return st, ok
}

func (c *emptyCounter) EventCount(dataset, component string, from, to float64) int {
	return c.stats.EventCount(dataset, component, from, to)
}

// TestPlannedPullsNeverEmpty: on a healthy source every pull the plan makes
// answers — no series window is empty and no baseline aggregate fails —
// over the whole held-out list, on both model paths.
func TestPlannedPullsNeverEmpty(t *testing.T) {
	f := getFixture(t)
	tel := f.gen.Telemetry()
	c := &emptyCounter{DataSource: tel, stats: tel, series: tel}
	s := restoredOver(t, f, c)
	for _, in := range f.test {
		s.PredictIncident(in)
		s.PredictWithModel("cpd+", in.Title, in.Body, in.InitialComponents, in.CreatedAt)
	}
	if c.appends.Load() < 1000 || c.stat.Load() < 1000 {
		t.Fatalf("the counter saw only %d series pulls and %d aggregate pulls", c.appends.Load(), c.stat.Load())
	}
	if e, s := c.emptyAppends.Load(), c.failedStats.Load(); e != 0 || s != 0 {
		t.Fatalf("%d of %d series windows came back empty and %d of %d baseline aggregates failed on healthy telemetry",
			e, c.appends.Load(), s, c.stat.Load())
	}
}
