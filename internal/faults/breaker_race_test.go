package faults

import (
	"sync"
	"sync/atomic"
	"testing"

	"scouts/internal/circuit"
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
	if st, _ := b.stateAt("lat", 10); st != circuit.StateOpen {
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
	if st, _ := b.stateAt("lat", 16); st != circuit.StateClosed {
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
	if st, _ := b.stateAt("lat", 16); st != circuit.StateOpen {
		t.Fatal("failed probe should re-open")
	}
	src.empty.Store(false)
	if got := b.SeriesWindow("lat", "s0", 16, 22); len(got) == 0 {
		t.Fatal("next cooldown's probe should pass (slot must have been released)")
	}
	if st, _ := b.stateAt("lat", 22); st != circuit.StateClosed {
		t.Fatal("successful second probe should close the breaker")
	}
}

// quietSource answers every series window with values derived from its
// arguments, except dataset "flaky": empty at window time downAt, and parked
// at probeAt until settle is done, so a probe stays in flight until every
// caller's query at probeAt has been answered or has entered the source.
type quietSource struct {
	downAt, probeAt float64
	settle          sync.WaitGroup
}

var quietDatasets = []string{"lat", "loss", "temp", "flaky"}

func (s *quietSource) Datasets() []monitoring.Descriptor {
	ds := make([]monitoring.Descriptor, len(quietDatasets))
	for i, name := range quietDatasets {
		ds[i] = monitoring.Descriptor{Name: name, Type: monitoring.TimeSeries, ComponentType: topology.TypeServer}
	}
	return ds
}

func (s *quietSource) SeriesWindow(dataset, component string, from, to float64) []float64 {
	if dataset == "flaky" {
		switch to {
		case s.downAt:
			return nil
		case s.probeAt:
			s.settle.Done()
			s.settle.Wait()
		}
	}
	return quietWindow(dataset, component, from, to)
}

func (s *quietSource) EventsWindow(string, string, float64, float64) []monitoring.EventRecord {
	return nil
}

func quietWindow(dataset, component string, from, to float64) []float64 {
	return []float64{from, to, float64(len(dataset)), float64(len(component)), from * to}
}

// TestBreakerQuietPathConcurrent: eight callers share one breaker, in phases
// that make the locked breaker's outcome independent of the schedule. On
// healthy datasets every pull takes the lock-free path, every answer is bit-
// equal to the source's and no gate trips. Dataset "flaky" answers empty at
// one window time, once per caller: with Trip at the caller count that opens
// it exactly once, every caller's query inside the cooldown must then
// short-circuit (a quiet flag left set after the failures lets them through),
// exactly one caller's query past the cooldown may probe while the others
// short-circuit (a fast path taken while half-open lets all eight through),
// and after the probe closes the gate everything answers again.
func TestBreakerQuietPathConcurrent(t *testing.T) {
	const callers = 8
	src := &quietSource{downAt: 10, probeAt: 11}
	b := NewBreaker(src, BreakerParams{Trip: callers, Cooldown: src.probeAt - src.downAt})
	comps := []string{"s0", "s1", "srv12"}
	phase := func(f func(w int)) {
		var wg sync.WaitGroup
		for w := 0; w < callers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				f(w)
			}(w)
		}
		wg.Wait()
	}
	// pull asks one series window three ways and reports whether it answered;
	// an answer must be the source's, bit for bit.
	pull := func(w, i int, dataset, comp string, to float64) bool {
		from := to - 0.5
		want := quietWindow(dataset, comp, from, to)
		switch i % 3 {
		case 0:
			dst := b.AppendSeries([]float64{float64(w)}, dataset, comp, from, to)
			if dst[0] != float64(w) {
				t.Errorf("caller %d: prefix rewritten", w)
			}
			if len(dst) == 1 {
				return false
			}
			if !sameSeries(dst[1:], want) {
				t.Errorf("caller %d: %s/%s at %v answered %v, want %v", w, dataset, comp, to, dst[1:], want)
			}
		case 1:
			st, ok := b.WindowStats(dataset, comp, from, to)
			if !ok {
				return false
			}
			if !sameStats(st, monitoring.StatsOf(want)) {
				t.Errorf("caller %d: %s/%s at %v stats %+v", w, dataset, comp, to, st)
			}
		default:
			got := b.SeriesWindow(dataset, comp, from, to)
			if got == nil {
				return false
			}
			if !sameSeries(got, want) {
				t.Errorf("caller %d: %s/%s at %v answered %v, want %v", w, dataset, comp, to, got, want)
			}
		}
		return true
	}
	healthy := func(w int, from, to float64) {
		for i := 0; i < 300; i++ {
			ds := quietDatasets[(i+w)%3]
			now := from + (to-from)*float64(i)/300
			if !pull(w, i+w, ds, comps[(i*7+w)%len(comps)], now) {
				t.Errorf("caller %d: healthy %s short-circuited at %v", w, ds, now)
			}
			if h := b.DatasetHealth(ds, now); !h.Available || h.Breaker != string(circuit.StateClosed) {
				t.Errorf("caller %d: healthy %s reports %+v", w, ds, h)
			}
		}
	}

	// Everything is healthy, "flaky" included.
	phase(func(w int) {
		healthy(w, 1, 5)
		for i := 0; i < 20; i++ {
			if !pull(w, i, "flaky", comps[i%len(comps)], 5+float64(i)*0.1) {
				t.Errorf("caller %d: flaky short-circuited while healthy", w)
			}
		}
	})
	// One failed window per caller: the Trip-th opens the gate.
	phase(func(w int) {
		if pull(w, w, "flaky", comps[w%len(comps)], src.downAt) {
			t.Errorf("caller %d: flaky answered at its empty window time", w)
		}
		healthy(w, src.downAt, src.downAt+0.5)
	})
	if st, _ := b.stateAt("flaky", src.downAt); st != circuit.StateOpen {
		t.Fatalf("after %d failed windows flaky is %s, want open", callers, st)
	}
	// Inside the cooldown every query short-circuits.
	phase(func(w int) {
		for i := 0; i < 20; i++ {
			now := src.downAt + 0.01 + float64(i)*0.04
			if pull(w, i+w, "flaky", comps[i%len(comps)], now) {
				t.Errorf("caller %d: flaky answered at %v inside its cooldown", w, now)
			}
			if h := b.DatasetHealth("flaky", now); h.Available || h.Breaker != string(circuit.StateOpen) {
				t.Errorf("caller %d: flaky inside its cooldown reports %+v", w, h)
			}
		}
		healthy(w, src.downAt+0.5, src.probeAt)
	})
	// Past the cooldown one caller probes; the rest short-circuit while its
	// query is parked in the source.
	var answered atomic.Int64
	src.settle.Add(callers)
	phase(func(w int) {
		if pull(w, w, "flaky", comps[w%len(comps)], src.probeAt) {
			answered.Add(1)
		} else {
			src.settle.Done()
		}
	})
	if n := answered.Load(); n != 1 {
		t.Fatalf("%d queries reached the half-open source, want the one probe", n)
	}
	// The probe closed the gate: everything answers again.
	phase(func(w int) {
		healthy(w, src.probeAt, src.probeAt+4)
		for i := 0; i < 20; i++ {
			if !pull(w, i, "flaky", comps[i%len(comps)], src.probeAt+0.5+float64(i)*0.1) {
				t.Errorf("caller %d: flaky short-circuited after its probe closed it", w)
			}
		}
	})

	for _, ds := range quietDatasets {
		want := 0
		if ds == "flaky" {
			want = 1
		}
		if n := b.Trips(ds); n != want {
			t.Errorf("Trips(%q) = %d, want %d", ds, n, want)
		}
		if g := b.lookup(ds); !g.quiet.Load() {
			t.Errorf("%s ends the run without a quiet gate: %+v", ds, g.Machine)
		}
	}
}
