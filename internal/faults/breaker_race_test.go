package faults

import (
	"sync"
	"sync/atomic"
	"testing"

	"scouts/internal/monitoring"
	"scouts/internal/topology"
)

// blockingSource counts inner queries and parks each one until released,
// so a test can hold a half-open probe in flight while racing a second
// query against the single probe slot.
type blockingSource struct {
	calls   atomic.Int64
	entered chan struct{} // one token per query that reached the source
	release chan struct{} // closed to let parked queries answer
	empty   atomic.Bool   // answer empty windows (failure) while set
}

func (s *blockingSource) Datasets() []monitoring.Descriptor {
	return []monitoring.Descriptor{
		{Name: "lat", Type: monitoring.TimeSeries, ComponentType: topology.TypeServer},
	}
}

func (s *blockingSource) SeriesWindow(dataset, component string, from, to float64) []float64 {
	s.calls.Add(1)
	s.entered <- struct{}{}
	<-s.release
	if s.empty.Load() {
		return nil
	}
	return []float64{1, 2, 3}
}

func (s *blockingSource) EventsWindow(dataset, component string, from, to float64) []monitoring.EventRecord {
	return nil
}

// TestBreakerHalfOpenSingleProbeSlot pins the probe-slot contract under
// concurrency: when an open breaker's cooldown elapses, exactly one of
// two racing queries may probe the inner source; the other must
// short-circuit to an empty answer without touching it. Run under -race
// (make chaos-smoke does) this also proves the slot handoff is properly
// synchronized.
func TestBreakerHalfOpenSingleProbeSlot(t *testing.T) {
	src := &blockingSource{entered: make(chan struct{}, 4), release: make(chan struct{})}
	b := NewBreaker(src, BreakerParams{Trip: 2, Cooldown: 5})

	// Open the breaker: two consecutive empty windows.
	src.empty.Store(true)
	close(src.release) // failures answer immediately
	b.SeriesWindow("lat", "s0", 0, 10)
	b.SeriesWindow("lat", "s0", 0, 10)
	if st, _ := b.stateAt("lat", 10); st != StateOpen {
		t.Fatal("breaker should be open after two failures")
	}
	<-src.entered
	<-src.entered

	// Re-arm the source: healthy again, but parked until released.
	src.empty.Store(false)
	src.release = make(chan struct{})

	// First query past the cooldown takes the probe slot and parks inside
	// the inner source.
	probeDone := make(chan []float64, 1)
	go func() { probeDone <- b.SeriesWindow("lat", "s0", 10, 16) }()
	<-src.entered // probe is in flight, holding the slot

	// A stampede of queries racing the in-flight probe must all
	// short-circuit: none may reach the inner source.
	callsBefore := src.calls.Load()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := b.SeriesWindow("lat", "s0", 10, 16); got != nil {
				t.Errorf("query racing the probe leaked data %v", got)
			}
		}()
	}
	wg.Wait()
	if n := src.calls.Load(); n != callsBefore {
		t.Fatalf("probe slot admitted %d extra quer(ies) to the inner source", n-callsBefore)
	}

	// Releasing the probe closes the breaker; traffic flows again.
	close(src.release)
	if got := <-probeDone; len(got) == 0 {
		t.Fatal("the probe itself should have answered")
	}
	if st, _ := b.stateAt("lat", 16); st != StateClosed {
		t.Fatal("successful probe should close the breaker")
	}
	if got := b.SeriesWindow("lat", "s0", 10, 16); len(got) == 0 {
		t.Fatal("closed breaker should pass traffic")
	}
}

// TestBreakerFailedProbeReleasesSlot ensures a failed probe both
// re-opens the breaker and releases the slot, so the next cooldown's
// probe is not wedged out by a stale occupancy bit.
func TestBreakerFailedProbeReleasesSlot(t *testing.T) {
	src := &blockingSource{entered: make(chan struct{}, 8), release: make(chan struct{})}
	close(src.release)
	src.empty.Store(true)
	b := NewBreaker(src, BreakerParams{Trip: 2, Cooldown: 5})

	b.SeriesWindow("lat", "s0", 0, 10)
	b.SeriesWindow("lat", "s0", 0, 10)  // open @10
	b.SeriesWindow("lat", "s0", 10, 16) // failed probe, re-open @16
	if st, _ := b.stateAt("lat", 16); st != StateOpen {
		t.Fatal("failed probe should re-open")
	}
	src.empty.Store(false)
	if got := b.SeriesWindow("lat", "s0", 16, 22); len(got) == 0 {
		t.Fatal("next cooldown's probe should pass (slot must have been released)")
	}
	if st, _ := b.stateAt("lat", 22); st != StateClosed {
		t.Fatal("successful second probe should close the breaker")
	}
}
