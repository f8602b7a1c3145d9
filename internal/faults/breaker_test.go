package faults

import (
	"testing"

	"scouts/internal/chaos"
	"scouts/internal/circuit"
)

func breakerOver(src *fakeSource, p BreakerParams) *Breaker {
	return NewBreaker(src, p)
}

func TestBreakerTripsOnConsecutiveEmptyWindows(t *testing.T) {
	src := &fakeSource{emptyFor: map[string]bool{"dead": true}}
	b := breakerOver(src, BreakerParams{Trip: 3, Cooldown: 5})

	for i := 0; i < 2; i++ {
		if got := b.SeriesWindow("lat", "dead", 0, 3); got != nil {
			t.Fatalf("empty component answered %v", got)
		}
		if st, _ := b.stateAt("lat", 3); st != circuit.StateClosed {
			t.Fatalf("after %d failures state = %s, want closed", i+1, st)
		}
	}
	b.SeriesWindow("lat", "dead", 0, 3) // third consecutive failure
	if st, _ := b.stateAt("lat", 3); st != circuit.StateOpen {
		t.Fatal("three consecutive empty windows should open the breaker")
	}
	if h := b.DatasetHealth("lat", 3); h.Available || h.Breaker != "open" {
		t.Fatalf("open breaker health = %+v", h)
	}

	// While open, queries short-circuit: the inner source is not touched
	// even for components that have data.
	calls := src.seriesCalls
	if got := b.SeriesWindow("lat", "live", 0, 3); got != nil {
		t.Fatalf("open breaker leaked data %v", got)
	}
	if src.seriesCalls != calls {
		t.Fatal("open breaker still queried the inner source")
	}
	// Gating is per dataset: the err breaker is still closed.
	if n := b.EventCount("err", "sw", 0, 3); n == 0 {
		t.Fatal("an open lat breaker must not gate the err dataset")
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	src := &fakeSource{emptyFor: map[string]bool{"dead": true}}
	b := breakerOver(src, BreakerParams{Trip: 3, Cooldown: 5})

	b.SeriesWindow("lat", "dead", 0, 3)
	b.SeriesWindow("lat", "dead", 0, 3)
	if got := b.SeriesWindow("lat", "live", 0, 3); len(got) == 0 {
		t.Fatal("live component should answer")
	}
	b.SeriesWindow("lat", "dead", 0, 3)
	b.SeriesWindow("lat", "dead", 0, 3)
	if st, _ := b.stateAt("lat", 3); st != circuit.StateClosed {
		t.Fatal("a success between failures must reset the trip streak")
	}
}

// TestBreakerStreakIsCallerBlind pins why the streak may only be fed
// windows that can answer: a gate counts per dataset, not per caller. Two
// callers that each ask about two silent components and then a live one
// never reach Trip 3 alone, but interleaved their silences run four long and
// open the gate — which is how routine empties from uncovered components
// once tripped healthy datasets under concurrent predictions. Callers that
// ask only what can answer leave no streak at any interleaving.
func TestBreakerStreakIsCallerBlind(t *testing.T) {
	ask := func(b *Breaker, comps ...string) {
		for _, c := range comps {
			b.SeriesWindow("lat", c, 0, 3)
		}
	}
	src := &fakeSource{emptyFor: map[string]bool{"silent": true}}

	alone := breakerOver(src, BreakerParams{Trip: 3, Cooldown: 5})
	ask(alone, "silent", "silent", "live", "silent", "silent", "live") // caller A, then caller B
	if alone.Trips("lat") != 0 {
		t.Fatal("two silences then a success must not open a Trip-3 gate")
	}
	interleaved := breakerOver(src, BreakerParams{Trip: 3, Cooldown: 5})
	ask(interleaved, "silent", "silent", "silent", "silent", "live", "live") // A and B in lockstep
	if interleaved.Trips("lat") != 1 {
		t.Fatalf("interleaved silences should open the gate once, opened %d times", interleaved.Trips("lat"))
	}
	planned := breakerOver(src, BreakerParams{Trip: 3, Cooldown: 5})
	ask(planned, "live", "live") // the same two callers, asking only what answers
	if st, _ := planned.stateAt("lat", 3); st != circuit.StateClosed || planned.Trips("lat") != 0 {
		t.Fatal("answerable queries must leave the gate closed")
	}
}

func TestBreakerHalfOpenProbeCloses(t *testing.T) {
	src := &fakeSource{emptyFor: map[string]bool{"dead": true}}
	b := breakerOver(src, BreakerParams{Trip: 2, Cooldown: 5})

	b.SeriesWindow("lat", "dead", 0, 10)
	b.SeriesWindow("lat", "dead", 0, 10)
	if st, _ := b.stateAt("lat", 10); st != circuit.StateOpen {
		t.Fatal("breaker should be open")
	}
	// Inside the cooldown the breaker stays open and short-circuits.
	if got := b.SeriesWindow("lat", "live", 0, 12); got != nil {
		t.Fatalf("cooldown leaked %v", got)
	}
	// Past the cooldown the next query is a probe; health reads half-open.
	if st, _ := b.stateAt("lat", 16); st != circuit.StateHalfOpen {
		t.Fatal("past cooldown the breaker should read half-open")
	}
	if got := b.SeriesWindow("lat", "live", 10, 16); len(got) == 0 {
		t.Fatal("probe query should reach the recovered source")
	}
	if st, _ := b.stateAt("lat", 16); st != circuit.StateClosed {
		t.Fatal("successful probe should close the breaker")
	}
	if trips := b.Trips("lat"); trips != 1 {
		t.Fatalf("trips = %d, want 1", trips)
	}
}

func TestBreakerHalfOpenProbeReopens(t *testing.T) {
	src := &fakeSource{emptyFor: map[string]bool{"dead": true}}
	b := breakerOver(src, BreakerParams{Trip: 2, Cooldown: 5})

	b.SeriesWindow("lat", "dead", 0, 10)
	b.SeriesWindow("lat", "dead", 0, 10)
	// Cooldown elapses; the probe still finds the component dead: one
	// failed probe re-opens immediately (no Trip-streak grace).
	if got := b.SeriesWindow("lat", "dead", 10, 16); got != nil {
		t.Fatalf("probe answered %v", got)
	}
	if st, _ := b.stateAt("lat", 16); st != circuit.StateOpen {
		t.Fatal("failed probe should re-open the breaker")
	}
	if trips := b.Trips("lat"); trips != 2 {
		t.Fatalf("trips = %d, want 2", trips)
	}
	// The re-open restarts the cooldown from the probe's time.
	if got := b.SeriesWindow("lat", "live", 12, 18); got != nil {
		t.Fatalf("restarted cooldown leaked %v", got)
	}
}

func TestBreakerStaleAfterTrips(t *testing.T) {
	src := &fakeSource{}
	dark := chaos.New(src, chaos.Schedule{
		Stalenesses: []chaos.Staleness{{Dataset: "lat", Start: 0, End: chaos.Forever, Lag: 8}},
	}, 1)
	b := NewBreaker(dark, BreakerParams{Trip: 2, Cooldown: 5, StaleAfter: 4})

	// Windows answer (the frozen past), but the admitted lag exceeds the
	// tolerance, so each one counts as a failure.
	b.WindowStats("lat", "s1", 20, 25)
	b.WindowStats("lat", "s1", 20, 25)
	if st, _ := b.stateAt("lat", 25); st != circuit.StateOpen {
		t.Fatal("stale windows should trip the breaker")
	}
	// The health overlay combines inner staleness and breaker state.
	h := b.DatasetHealth("lat", 25)
	if h.Available || h.Breaker != "open" || h.Staleness != 8 {
		t.Fatalf("health = %+v", h)
	}
}

func TestBreakerEventSilenceIsNotFailure(t *testing.T) {
	src := &fakeSource{}
	b := breakerOver(src, BreakerParams{Trip: 2, Cooldown: 5})
	// "err" event windows for an unknown dataset path answer empty series:
	// query the event dataset many times; the gate must stay closed since
	// events are never observed.
	for i := 0; i < 10; i++ {
		b.EventsWindow("err", "sw1", 0, 0) // empty window
		b.EventCount("err", "sw1", 0, 0)
	}
	if st, _ := b.stateAt("err", 0); st != circuit.StateClosed {
		t.Fatal("event silence must not trip the breaker")
	}
}
