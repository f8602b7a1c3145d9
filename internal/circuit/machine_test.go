package circuit

import (
	"math/rand"
	"testing"
)

// TestMachinePredicatesMatchFields drives a Machine through random
// Allow/Record/Release sequences, with callers holding allowed queries
// across steps the way concurrent queries do, and checks after every step
// that the read-only predicates agree with the fields they summarise:
// Quiet is closed with no streak, and StateAt is the stored state except
// that an open machine past its cooldown reads half-open. The per-dataset
// gates publish Quiet as their lock-free fast-path flag and the gateway
// reports StateAt, so a predicate that drifts from the fields would let
// queries skip a half-open probe slot or misreport a replica.
func TestMachinePredicatesMatchFields(t *testing.T) {
	const (
		trip     = 3
		cooldown = 5.0
	)
	type held struct{ probe bool }
	rng := rand.New(rand.NewSource(1))
	m := NewMachine[float64]()
	var inflight []held
	now := 0.0
	seen := map[State]int{}
	quiet, probes := 0, 0
	for step := 0; step < 20000; step++ {
		now += rng.Float64() * 2
		trips := m.trips
		switch op := rng.Intn(4); {
		case op <= 1 || len(inflight) == 0:
			observed := rng.Intn(4) != 0
			if pass, probe := m.Allow(now, cooldown, observed); pass && observed {
				inflight = append(inflight, held{probe})
				if probe {
					probes++
				}
			}
		case op == 2:
			i := rng.Intn(len(inflight))
			h := inflight[i]
			inflight = append(inflight[:i], inflight[i+1:]...)
			m.Record(now, trip, rng.Intn(3) != 0, h.probe)
		default:
			i := rng.Intn(len(inflight))
			if inflight[i].probe {
				m.Release()
			}
			inflight = append(inflight[:i], inflight[i+1:]...)
		}

		if got, want := m.Quiet(), m.state == StateClosed && m.fails == 0; got != want {
			t.Fatalf("step %d: Quiet()=%v for %+v", step, got, m)
		}
		want := m.state
		if m.state == StateOpen && now-m.openedAt >= cooldown {
			want = StateHalfOpen
		}
		if got := m.StateAt(now, cooldown); got != want {
			t.Fatalf("step %d: StateAt(%g)=%s for %+v, want %s", step, now, got, m, want)
		}
		if m.fails < 0 || m.fails >= trip {
			t.Fatalf("step %d: failure streak %d in %+v", step, m.fails, m)
		}
		if m.Trips() != m.trips || m.trips < trips || m.trips > trips+1 {
			t.Fatalf("step %d: Trips()=%d after %d for %+v", step, m.Trips(), trips, m)
		}
		seen[m.StateAt(now, cooldown)]++
		if m.Quiet() {
			quiet++
		}
	}
	if seen[StateClosed] < 100 || seen[StateOpen] < 100 || seen[StateHalfOpen] < 100 || quiet < 100 || probes < 100 {
		t.Fatalf("the sequence is too tame: states %v, %d quiet steps, %d probes", seen, quiet, probes)
	}
}
