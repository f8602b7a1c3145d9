// Package circuit holds the closed → open → half-open state machine both
// of the daemons' circuit breakers run, and the request-level ReqBreaker
// the gateway keeps per replica. The per-dataset breaker in
// internal/faults runs the same Machine on model hours; keeping the
// machine here lets the gateway link it without the monitoring plane.
package circuit

// State is a circuit breaker's position.
type State string

// The classic three breaker states.
const (
	// StateClosed: the target is trusted; queries flow and failures are
	// counted.
	StateClosed State = "closed"
	// StateOpen: the target tripped; queries short-circuit until the
	// cooldown elapses.
	StateOpen State = "open"
	// StateHalfOpen: the cooldown elapsed; probe queries flow again. One
	// success closes the breaker, one failure re-opens it.
	StateHalfOpen State = "half-open"
)

// TimeBase is what a Machine measures cooldowns in: model hours for the
// per-dataset breakers, time since construction for a ReqBreaker.
type TimeBase interface{ ~float64 | ~int64 }

// Machine is the closed → open → half-open state machine under both
// breakers. It keeps no clock and no lock: callers pass the current time
// in their own base and hold their own mutex, so the per-dataset gates
// replay deterministically from query windows (model hours, never the wall
// clock) while replica breakers cool down in injected wall time. Machines
// compare with ==; NewMachine returns a closed one.
type Machine[T TimeBase] struct {
	state    State
	fails    int
	openedAt T
	trips    int
	// probing marks the single half-open probe slot as taken: exactly one
	// in-flight query may test a recovering target, every concurrent
	// observed query short-circuits until the probe's outcome lands in
	// Record. Two racing probes would double-count a failure (re-opening
	// the breaker twice) or let a burst through a target that is still down.
	probing bool
}

// NewMachine returns a closed machine with no failure streak.
func NewMachine[T TimeBase]() Machine[T] { return Machine[T]{state: StateClosed} }

// Allow decides whether a query at time now may pass, moving an open
// machine past its cooldown to half-open. An observed query — one whose
// outcome will be fed back through Record — takes the probe slot while
// half-open (probe == true) or short-circuits when the slot is taken. An
// unobserved query never takes the slot: while a probe is in flight it
// flows — the target is being tested, not trusted, and an extra read
// costs nothing the probe is not already risking.
func (m *Machine[T]) Allow(now, cooldown T, observed bool) (pass, probe bool) {
	switch m.state {
	case StateOpen:
		if now-m.openedAt < cooldown {
			return false, false
		}
		m.state = StateHalfOpen
	case StateHalfOpen:
		if observed && m.probing {
			return false, false
		}
	default:
		return true, false
	}
	if observed {
		m.probing = true
	}
	return true, observed
}

// Record feeds one allowed query's outcome into the machine, releasing the
// probe slot when the query held it. A success closes the machine; a
// failed probe (or any failure while half-open) re-opens it immediately;
// trip consecutive closed-state failures open it.
func (m *Machine[T]) Record(now T, trip int, ok, probe bool) {
	if probe {
		m.probing = false
	}
	if ok {
		m.fails = 0
		m.state = StateClosed
		return
	}
	if !probe && m.state != StateHalfOpen {
		m.fails++
		if m.fails < trip {
			return
		}
	}
	m.state = StateOpen
	m.openedAt = now
	m.trips++
	m.fails = 0
}

// Release frees the probe slot without recording an outcome: neither the
// failure streak nor the state moves.
func (m *Machine[T]) Release() { m.probing = false }

// StateAt reads the effective state at time now without advancing the
// machine: an open machine past its cooldown reports half-open, matching
// what the next Allow would decide.
func (m *Machine[T]) StateAt(now, cooldown T) State {
	if m.state == StateOpen && now-m.openedAt >= cooldown {
		return StateHalfOpen
	}
	return m.state
}

// Quiet reports whether Allow would pass any query without side effect and
// a successful non-probe Record would change nothing: closed, no streak.
func (m *Machine[T]) Quiet() bool { return m.state == StateClosed && m.fails == 0 }

// Trips returns how many times the machine has opened.
func (m *Machine[T]) Trips() int { return m.trips }
