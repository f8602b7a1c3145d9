package faults

import (
	"maps"
	"sync"
	"sync/atomic"

	"scouts/internal/monitoring"
)

// State is a circuit breaker's position.
type State string

// The classic three breaker states.
const (
	// StateClosed: the dataset is trusted; queries flow and failures are
	// counted.
	StateClosed State = "closed"
	// StateOpen: the dataset tripped; queries short-circuit to empty
	// answers (which featurization imputes over) until the cooldown
	// elapses.
	StateOpen State = "open"
	// StateHalfOpen: the cooldown elapsed; probe queries flow again. One
	// success closes the breaker, one failure re-opens it.
	StateHalfOpen State = "half-open"
)

// BreakerParams tune the per-dataset circuit breakers.
type BreakerParams struct {
	// Trip is how many consecutive failed series windows (empty or too
	// stale) open the breaker; any successful window resets the streak.
	// The streak is per dataset, not per caller, so it is only meaningful
	// when every window it sees could have answered: featurization never
	// asks a dataset about a component type its descriptor does not cover,
	// an empty window therefore means missing data, and a streak counts
	// real emptiness under any number of concurrent callers. Default 32.
	Trip int
	// Cooldown is how long (model hours) an open breaker short-circuits
	// before allowing probe traffic. Default 2.
	Cooldown float64
	// StaleAfter, when positive, counts a window as failed if the inner
	// source reports more than this much staleness (model hours) for the
	// dataset — lagging data trips the breaker like missing data does.
	StaleAfter float64
}

func (p BreakerParams) withDefaults() BreakerParams {
	if p.Trip <= 0 {
		p.Trip = 32
	}
	if p.Cooldown <= 0 {
		p.Cooldown = 2
	}
	return p
}

// timeBase is what a machine measures cooldowns in: model hours for the
// per-dataset gates, time since construction for a ReqBreaker.
type timeBase interface{ ~float64 | ~int64 }

// machine is the closed → open → half-open state machine under both
// breakers. It keeps no clock and no lock: callers pass the current time
// in their own base and hold their own mutex, so the per-dataset gates
// replay deterministically from query windows (model hours, never the wall
// clock) while replica breakers cool down in injected wall time.
type machine[T timeBase] struct {
	state    State
	fails    int
	openedAt T
	trips    int
	// probing marks the single half-open probe slot as taken: exactly one
	// in-flight query may test a recovering target, every concurrent
	// observed query short-circuits until the probe's outcome lands in
	// record. Two racing probes would double-count a failure (re-opening
	// the breaker twice) or let a burst through a target that is still down.
	probing bool
}

// allow decides whether a query at time now may pass, moving an open
// machine past its cooldown to half-open. An observed query — one whose
// outcome will be fed back through record — takes the probe slot while
// half-open (probe == true) or short-circuits when the slot is taken. An
// unobserved query never takes the slot: while a probe is in flight it
// flows — the target is being tested, not trusted, and an extra read
// costs nothing the probe is not already risking.
func (m *machine[T]) allow(now, cooldown T, observed bool) (pass, probe bool) {
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

// record feeds one allowed query's outcome into the machine, releasing the
// probe slot when the query held it. A success closes the machine; a
// failed probe (or any failure while half-open) re-opens it immediately;
// trip consecutive closed-state failures open it.
func (m *machine[T]) record(now T, trip int, ok, probe bool) {
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

// stateAt reads the effective state at time now without advancing the
// machine: an open machine past its cooldown reports half-open, matching
// what the next allow would decide.
func (m *machine[T]) stateAt(now, cooldown T) State {
	if m.state == StateOpen && now-m.openedAt >= cooldown {
		return StateHalfOpen
	}
	return m.state
}

// quiet reports whether allow would pass any query without side effect and
// a successful non-probe record would change nothing: closed, no streak.
func (m *machine[T]) quiet() bool { return m.state == StateClosed && m.fails == 0 }

// gate is one dataset's breaker, on model hours. quiet publishes
// machine.quiet() to callers that do not hold the Breaker's mutex: it is
// cleared under the mutex before the machine is touched and set again after,
// so a caller that reads it true acts on a machine that was quiet at that
// instant, and no transition can be half-seen.
type gate struct {
	quiet atomic.Bool
	machine[float64]
}

// Breaker wraps a monitoring.DataSource with a per-dataset circuit
// breaker: consecutive empty (or too-stale) series windows open the
// dataset's breaker, an open breaker answers empty windows without
// touching the inner source, and after a cooldown probe queries test
// whether the dataset recovered. Breaker implements
// monitoring.DataSource, monitoring.StatsSource, monitoring.SeriesAppender
// and monitoring.HealthReporter — featurization sees an open breaker as an
// unavailable dataset and mean-imputes its features.
//
// Only time-series queries feed the state machine: most event datasets
// are legitimately silent for hours (background rates are a handful of
// events per week), so an empty event window carries no outage signal.
// Event queries are still short-circuited while the breaker is open.
type Breaker struct {
	inner  monitoring.DataSource
	stats  monitoring.StatsSource
	series monitoring.SeriesAppender
	health monitoring.HealthReporter // nil when inner has no health capability
	p      BreakerParams

	// mu serialises every transition of every gate. gates is copy-on-write:
	// read without mu, replaced under it when a dataset outside the registry
	// is first seen.
	mu    sync.Mutex
	gates atomic.Pointer[map[string]*gate]
}

// NewBreaker installs circuit breakers over every dataset of inner.
func NewBreaker(inner monitoring.DataSource, p BreakerParams) *Breaker {
	b := &Breaker{
		inner:  inner,
		stats:  monitoring.StatsSourceOf(inner),
		series: monitoring.SeriesAppenderOf(inner),
		health: monitoring.HealthReporterOf(inner),
		p:      p.withDefaults(),
	}
	gates := map[string]*gate{}
	for _, d := range inner.Datasets() {
		gates[d.Name] = newGate()
	}
	b.gates.Store(&gates)
	return b
}

func newGate() *gate {
	g := &gate{machine: machine[float64]{state: StateClosed}}
	g.quiet.Store(true)
	return g
}

// Datasets implements monitoring.DataSource (registry passthrough).
func (b *Breaker) Datasets() []monitoring.Descriptor { return b.inner.Datasets() }

// lookup returns the dataset's gate, or nil for a dataset outside the
// registry that no query has named yet.
func (b *Breaker) lookup(dataset string) *gate { return (*b.gates.Load())[dataset] }

// gateOf returns the dataset's gate, adding a closed one on first use.
func (b *Breaker) gateOf(dataset string) *gate {
	if g := b.lookup(dataset); g != nil {
		return g
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	old := *b.gates.Load()
	if g := old[dataset]; g != nil {
		return g
	}
	gates := maps.Clone(old)
	g := newGate()
	gates[dataset] = g
	b.gates.Store(&gates)
	return g
}

// lockGate takes b.mu and clears g's quiet flag before the caller touches
// g's machine; unlockGate republishes the flag and releases b.mu.
func (b *Breaker) lockGate(g *gate) {
	b.mu.Lock()
	g.quiet.Store(false)
}

func (b *Breaker) unlockGate(g *gate) {
	g.quiet.Store(g.machine.quiet())
	b.mu.Unlock()
}

// begin decides whether an observed query (one whose outcome will be fed
// back through record) at time t may pass gate g to the inner source; see
// machine.allow. The probe slot is released by record, which every
// begin(pass=true) caller invokes after its inner query returns. A quiet
// gate passes without the lock: allow would change nothing.
func (b *Breaker) begin(g *gate, t float64) (pass, probe bool) {
	if g.quiet.Load() {
		return true, false
	}
	b.lockGate(g)
	defer b.unlockGate(g)
	return g.allow(t, b.p.Cooldown, true)
}

// beginPassive decides whether an unobserved query (events; their silence
// carries no outage signal, so no record follows) may pass.
func (b *Breaker) beginPassive(dataset string, t float64) bool {
	g := b.gateOf(dataset)
	if g.quiet.Load() {
		return true
	}
	b.lockGate(g)
	defer b.unlockGate(g)
	pass, _ := g.allow(t, b.p.Cooldown, false)
	return pass
}

// record feeds a series-window outcome into g's state machine. A success
// that holds no probe slot changes nothing on a quiet gate, so it returns
// without the lock.
func (b *Breaker) record(g *gate, t float64, ok, probe bool) {
	if ok && !probe && g.quiet.Load() {
		return
	}
	b.lockGate(g)
	defer b.unlockGate(g)
	g.record(t, b.p.Trip, ok, probe)
}

// tooStale reports whether the inner source admits to unacceptable lag.
func (b *Breaker) tooStale(dataset string, t float64) bool {
	if b.p.StaleAfter <= 0 || b.health == nil {
		return false
	}
	return b.health.DatasetHealth(dataset, t).Staleness > b.p.StaleAfter
}

// SeriesWindow implements monitoring.DataSource, gated and observed.
func (b *Breaker) SeriesWindow(dataset, component string, from, to float64) []float64 {
	vals := b.AppendSeries(nil, dataset, component, from, to)
	if len(vals) == 0 {
		return nil
	}
	return vals
}

// AppendSeries implements monitoring.SeriesAppender, gated and observed
// exactly like SeriesWindow: a short-circuited query never reaches the inner
// source, and a window the breaker rejects (empty, or too stale) is cut back
// off dst before it is returned.
func (b *Breaker) AppendSeries(dst []float64, dataset, component string, from, to float64) []float64 {
	g := b.gateOf(dataset)
	pass, probe := b.begin(g, to)
	if !pass {
		return dst
	}
	n := len(dst)
	dst = b.series.AppendSeries(dst, dataset, component, from, to)
	ok := len(dst) > n && !b.tooStale(dataset, to)
	b.record(g, to, ok, probe)
	if !ok {
		return dst[:n]
	}
	return dst
}

// WindowStats implements monitoring.StatsSource, gated and observed.
func (b *Breaker) WindowStats(dataset, component string, from, to float64) (monitoring.Stats, bool) {
	g := b.gateOf(dataset)
	pass, probe := b.begin(g, to)
	if !pass {
		return monitoring.Stats{}, false
	}
	st, ok := b.stats.WindowStats(dataset, component, from, to)
	ok = ok && !b.tooStale(dataset, to)
	b.record(g, to, ok, probe)
	if !ok {
		return monitoring.Stats{}, false
	}
	return st, true
}

// EventsWindow implements monitoring.DataSource: gated (an open breaker
// answers nothing) but never observed — event silence is not failure.
func (b *Breaker) EventsWindow(dataset, component string, from, to float64) []monitoring.EventRecord {
	if !b.beginPassive(dataset, to) {
		return nil
	}
	return b.inner.EventsWindow(dataset, component, from, to)
}

// EventCount implements monitoring.StatsSource, gated like EventsWindow.
func (b *Breaker) EventCount(dataset, component string, from, to float64) int {
	if !b.beginPassive(dataset, to) {
		return 0
	}
	return b.stats.EventCount(dataset, component, from, to)
}

// stateAt reads a gate's effective state at time t without advancing the
// machine: an open gate past its cooldown reports half-open.
func (b *Breaker) stateAt(dataset string, t float64) (State, int) {
	g := b.lookup(dataset)
	if g == nil {
		return StateClosed, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return g.stateAt(t, b.p.Cooldown), g.trips
}

// DatasetHealth implements monitoring.HealthReporter: the inner source's
// report (when it has one) overlaid with the breaker's verdict.
func (b *Breaker) DatasetHealth(dataset string, t float64) monitoring.DatasetHealth {
	h := monitoring.DatasetHealth{Dataset: dataset, Available: true}
	if b.health != nil {
		h = b.health.DatasetHealth(dataset, t)
	}
	state := StateClosed
	if g := b.lookup(dataset); g != nil && !g.quiet.Load() {
		state, _ = b.stateAt(dataset, t)
	}
	h.Breaker = string(state)
	if state == StateOpen {
		h.Available = false
	}
	return h
}

// HealthSnapshot implements monitoring.HealthReporter.
func (b *Breaker) HealthSnapshot(t float64) []monitoring.DatasetHealth {
	ds := b.inner.Datasets()
	out := make([]monitoring.DatasetHealth, len(ds))
	for i, d := range ds {
		out[i] = b.DatasetHealth(d.Name, t)
	}
	return out
}

// Trips returns how many times the dataset's breaker has opened.
func (b *Breaker) Trips(dataset string) int {
	g := b.lookup(dataset)
	if g == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return g.trips
}

// Interface conformance checks.
var (
	_ monitoring.DataSource     = (*Breaker)(nil)
	_ monitoring.StatsSource    = (*Breaker)(nil)
	_ monitoring.SeriesAppender = (*Breaker)(nil)
	_ monitoring.HealthReporter = (*Breaker)(nil)
)
