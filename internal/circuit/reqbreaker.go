package circuit

import (
	"sync"
	"time"
)

// ReqBreakerParams tune a request-level circuit breaker (the wall-clock
// sibling of faults.BreakerParams, which runs on model hours).
type ReqBreakerParams struct {
	// Trip is how many consecutive failed requests open the breaker.
	// Default 5.
	Trip int
	// Cooldown is how long an open breaker short-circuits before allowing
	// a probe request. Default 2s.
	Cooldown time.Duration
}

func (p ReqBreakerParams) withDefaults() ReqBreakerParams {
	if p.Trip <= 0 {
		p.Trip = 5
	}
	if p.Cooldown <= 0 {
		p.Cooldown = 2 * time.Second
	}
	return p
}

// ReqBreaker is the three-state circuit breaker for request/response
// traffic: the gateway keeps one per replica, so a replica that fails
// Trip requests in a row stops receiving traffic until a cooldown
// elapses and a single probe request proves it recovered. It runs the
// same Machine (and single-occupancy half-open probe slot) as the
// per-dataset faults.Breaker; the difference is the time base — a
// replica breaker cools down in wall-clock time since its construction,
// read through an injected clock so tests and deterministic replays never
// touch time.Now themselves.
type ReqBreaker struct {
	p     ReqBreakerParams
	now   func() time.Time
	epoch time.Time

	mu sync.Mutex
	m  Machine[time.Duration]
}

// NewReqBreaker builds a closed breaker reading time through now (which
// must be non-nil; binaries pass time.Now, tests a fake).
func NewReqBreaker(p ReqBreakerParams, now func() time.Time) *ReqBreaker {
	return &ReqBreaker{p: p.withDefaults(), now: now, epoch: now(), m: NewMachine[time.Duration]()}
}

// Allow reports whether a request may be sent. probe marks the request
// as the half-open trial; the caller must feed its outcome back through
// Record(ok, probe) — the probe slot is single occupancy and Record is
// what releases it, so a dropped outcome would wedge the breaker
// half-open.
func (b *ReqBreaker) Allow() (pass, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.m.Allow(b.now().Sub(b.epoch), b.p.Cooldown, true)
}

// Record feeds one allowed request's outcome into the state machine,
// releasing the probe slot when the request held it; see Machine.Record.
func (b *ReqBreaker) Record(ok, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m.Record(b.now().Sub(b.epoch), b.p.Trip, ok, probe)
}

// Release abandons an allowed request without recording an outcome:
// the probe slot (if held) is freed, but neither the failure streak nor
// the state machine moves. Hedged requests use it for the loser — a
// request cancelled because its sibling won says nothing about the
// replica's health, and feeding the cancellation in as a failure would
// let hedging itself trip breakers.
func (b *ReqBreaker) Release(probe bool) {
	if !probe {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m.Release()
}

// State reads the effective state: an open breaker past its cooldown
// reports half-open, matching what the next Allow would decide.
func (b *ReqBreaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.m.StateAt(b.now().Sub(b.epoch), b.p.Cooldown)
}

// Trips returns how many times the breaker has opened.
func (b *ReqBreaker) Trips() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.m.Trips()
}
