package faults

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"scouts/internal/allocgate"
	"scouts/internal/chaos"
	"scouts/internal/circuit"
	"scouts/internal/cloudsim"
	"scouts/internal/monitoring"
)

// plainSource hides every optional capability of the source it wraps, so
// the wrappers above it take their adapter paths.
type plainSource struct{ monitoring.DataSource }

// equivalenceSchedule exercises every clause the wrappers handle: a whole-
// dataset blackout, a cluster-scoped one, a flap, staleness beyond and
// within the breaker's tolerance, and NaN/spike corruption.
func equivalenceSchedule() chaos.Schedule {
	return chaos.Schedule{
		Blackouts: []chaos.Blackout{
			{Dataset: cloudsim.DSTemp, Start: 30, End: 37},
			{Dataset: cloudsim.DSCPU, Cluster: "c1.dc1", Start: 20, End: 60},
		},
		Flaps: []chaos.Flap{{Dataset: cloudsim.DSPFC, Start: 10, End: 80, Period: 3, Duty: 0.5}},
		Stalenesses: []chaos.Staleness{
			{Dataset: cloudsim.DSPingmesh, Start: 40, End: 55, Lag: 6},
			{Dataset: cloudsim.DSCanary, Start: 0, End: chaos.Forever, Lag: 1},
		},
		Corruptions: []chaos.Corruption{
			{Dataset: cloudsim.DSIfCounters, Start: 0, End: chaos.Forever, NaNProb: 0.1, SpikeProb: 0.1},
		},
	}
}

var equivalenceParams = BreakerParams{Trip: 3, Cooldown: 2, StaleAfter: 4}

func equivalenceTelemetry() *cloudsim.Telemetry {
	topo := cloudsim.New(cloudsim.Params{Seed: 3, Days: 5, IncidentsPerDay: 4}).Topology()
	return cloudsim.NewTelemetry(topo, 3, cloudsim.Anomaly{Component: "tor1.c1.dc1", Start: 20, End: 70, Effects: []cloudsim.Effect{
		{Dataset: cloudsim.DSTemp, MeanShift: 9, StdScale: 2},
		{Dataset: cloudsim.DSSyslog, EventRate: 5},
	}})
}

// oldSeriesWindow is Breaker.SeriesWindow as it read before the append
// path, kept as the reference (verbatim but for the gate lookup): begin, the
// inner window, the staleness check, record.
func (b *Breaker) oldSeriesWindow(dataset, component string, from, to float64) []float64 {
	g := b.gateOf(dataset)
	pass, probe := b.begin(g, to)
	if !pass {
		return nil
	}
	vals := b.inner.SeriesWindow(dataset, component, from, to)
	ok := len(vals) > 0 && !b.tooStale(dataset, to)
	b.record(g, to, ok, probe)
	if !ok {
		return nil
	}
	return vals
}

// driver pulls series windows one of three ways — the old SeriesWindow,
// today's, or AppendSeries; everything else it does is the same call on its
// own Breaker.
type driver struct {
	name string
	b    *Breaker
	pull string // "old", "window" or "append"
	dst  []float64
}

var driverPrefix = []float64{math.Inf(-1), 3}

// series answers the window's values (nil when the breaker gave none). The
// append form pulls onto a prefix and checks the prefix survived and that a
// window without values left the length alone.
func (d *driver) series(t *testing.T, dataset, component string, from, to float64) []float64 {
	t.Helper()
	switch d.pull {
	case "old":
		return d.b.oldSeriesWindow(dataset, component, from, to)
	case "window":
		vals := d.b.SeriesWindow(dataset, component, from, to)
		if vals != nil && len(vals) == 0 {
			t.Fatalf("%s: SeriesWindow answered an empty non-nil window", d.name)
		}
		return vals
	}
	d.dst = append(d.dst[:0], driverPrefix...)
	out := d.b.AppendSeries(d.dst, dataset, component, from, to)
	for i, v := range driverPrefix {
		if out[i] != v {
			t.Fatalf("%s: AppendSeries rewrote prefix cell %d", d.name, i)
		}
	}
	d.dst = out
	if len(out) == len(driverPrefix) {
		return nil
	}
	return out[len(driverPrefix):]
}

func sameSeries(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestBreakerAppendSeriesEquivalence drives six identical breakers — over
// the capable simulator and over a capability-hiding wrapper of it, each
// pulled through the old SeriesWindow, today's, and AppendSeries — with one
// seeded, interleaved query sequence. After every step they must agree on
// the answer and on every gate's state, failure streak, trip count and
// probe slot: the append path is the same begin → inner → tooStale → record
// sequence, not a lookalike.
func TestBreakerAppendSeriesEquivalence(t *testing.T) {
	tel := equivalenceTelemetry()
	sched := equivalenceSchedule()
	const seed = 5
	var drivers []*driver
	for _, pull := range []string{"old", "window", "append"} {
		drivers = append(drivers,
			&driver{name: "native/" + pull, pull: pull, b: NewBreaker(chaos.New(tel, sched, seed), equivalenceParams)},
			&driver{name: "plain/" + pull, pull: pull, b: NewBreaker(chaos.New(plainSource{tel}, sched, seed), equivalenceParams)})
	}
	for _, d := range drivers {
		d.b.inner.(*chaos.Source).ClusterOf = tel.Topology().ClusterOf
	}
	// ref answers what the chaos layer alone says, without moving any gate.
	ref := chaos.New(tel, sched, seed)
	ref.ClusterOf = tel.Topology().ClusterOf

	comps := []string{"tor1.c1.dc1", "srv1.c1.dc1", "srv3.c2.dc1", "agg1.c2.dc2", "c1.dc1", "c3.dc2", "vm1.c1.dc1", "nosuch"}
	// Mostly ask a dataset about components it monitors: an uncovered
	// component is an empty window, and with nothing else the gates would do
	// little but trip.
	var datasets []string
	covered := map[string][]string{}
	for _, d := range tel.Datasets() {
		datasets = append(datasets, d.Name)
		for _, comp := range comps {
			if c, ok := tel.Topology().Lookup(comp); ok && d.CoversType(c.Type) {
				covered[d.Name] = append(covered[d.Name], comp)
			}
		}
	}

	rng := rand.New(rand.NewSource(99))
	var answered, shortCircuited, staleRejected, probes int
	for step := 0; step < 6000; step++ {
		now := 2 + float64(step)*0.015 + rng.Float64()*0.5
		ds := datasets[rng.Intn(len(datasets))]
		comp := comps[rng.Intn(len(comps))]
		if rng.Intn(10) > 0 {
			comp = covered[ds][rng.Intn(len(covered[ds]))]
		}
		from, to := now-2, now
		op := rng.Intn(4)

		g0 := drivers[0].b.lookup(ds)
		// Whether begin will let this step's observed query through, and
		// whether as the half-open probe (between steps no probe is in
		// flight, so the slot is free).
		probing := g0 != nil && g0.StateAt(to, equivalenceParams.Cooldown) == circuit.StateHalfOpen
		passes := g0 == nil || g0.StateAt(to, equivalenceParams.Cooldown) != circuit.StateOpen

		var first []float64
		var firstStats monitoring.Stats
		var firstOK bool
		var firstCount int
		for i, d := range drivers {
			switch op {
			case 0, 1:
				vals := d.series(t, ds, comp, from, to)
				if i == 0 {
					first = vals
				} else if !sameSeries(vals, first) {
					t.Fatalf("step %d %s/%s [%v,%v): %s answers %v, %s answers %v",
						step, ds, comp, from, to, d.name, vals, drivers[0].name, first)
				}
			case 2:
				st, ok := d.b.WindowStats(ds, comp, from-2, from)
				if i == 0 {
					firstStats, firstOK = st, ok
				} else if ok != firstOK || !sameStats(st, firstStats) {
					t.Fatalf("step %d %s/%s: %s stats %+v/%v, %s %+v/%v",
						step, ds, comp, d.name, st, ok, drivers[0].name, firstStats, firstOK)
				}
			default:
				n := d.b.EventCount(ds, comp, from, to)
				if i == 0 {
					firstCount = n
				} else if n != firstCount {
					t.Fatalf("step %d %s/%s: %s counts %d events, %s %d", step, ds, comp, d.name, n, drivers[0].name, firstCount)
				}
			}
		}
		if op <= 1 {
			inner := ref.SeriesWindow(ds, comp, from, to)
			switch {
			case len(first) > 0:
				answered++
				if !sameSeries(first, inner) {
					t.Fatalf("step %d %s/%s: the breaker altered the window", step, ds, comp)
				}
			case len(inner) > 0 && passes:
				staleRejected++ // the source answered and the gate let it through: only tooStale says no
			case len(inner) > 0:
				shortCircuited++
			}
			if probing {
				probes++
			}
		}

		for _, name := range datasets {
			want := drivers[0].b.lookup(name)
			for _, d := range drivers {
				if g := d.b.lookup(name); g != nil && g.quiet.Load() != g.Quiet() {
					t.Fatalf("step %d (op %d on %s/%s): gate %q of %s publishes quiet=%v for %+v",
						step, op, ds, comp, name, d.name, g.quiet.Load(), g.Machine)
				}
			}
			for _, d := range drivers[1:] {
				got := d.b.lookup(name)
				if (got == nil) != (want == nil) || (got != nil && got.Machine != want.Machine) {
					t.Fatalf("step %d (op %d on %s/%s): gate %q of %s is %+v, of %s %+v",
						step, op, ds, comp, name, d.name, got, drivers[0].name, want)
				}
				if d.b.Trips(name) != drivers[0].b.Trips(name) {
					t.Fatalf("step %d: Trips(%q) differ", step, name)
				}
			}
		}
	}

	trips := 0
	for _, name := range datasets {
		trips += drivers[0].b.Trips(name)
	}
	if answered < 500 || shortCircuited < 20 || staleRejected < 5 || probes < 20 || trips < 10 {
		t.Fatalf("the sequence is too tame: %d answered, %d short-circuited, %d rejected as stale, %d probes, %d trips",
			answered, shortCircuited, staleRejected, probes, trips)
	}
}

// sameStats compares aggregates bit for bit (NaN-corrupted windows have NaN
// moments, which == would call different).
func sameStats(a, b monitoring.Stats) bool {
	return sameSeries([]float64{a.Mean, a.Std}, []float64{b.Mean, b.Std})
}

// TestBreakerAppendSeriesConcurrent: callers that each own their dst share
// one breaker. Whatever the interleaving does to the gates, every answer is
// either nothing (length unchanged) or exactly the chaos layer's window,
// behind an intact prefix. Under -race this is also the data-race check of
// the append path.
func TestBreakerAppendSeriesConcurrent(t *testing.T) {
	tel := equivalenceTelemetry()
	sched := equivalenceSchedule()
	src := chaos.New(tel, sched, 5)
	ref := chaos.New(tel, sched, 5)
	b := NewBreaker(src, equivalenceParams)
	series := []string{cloudsim.DSTemp, cloudsim.DSPFC, cloudsim.DSPingmesh, cloudsim.DSIfCounters, cloudsim.DSCPU, cloudsim.DSCanary}
	comps := []string{"tor1.c1.dc1", "srv1.c1.dc1", "c1.dc1", "agg1.c2.dc2", "vm1.c1.dc1"}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			prefix := []float64{float64(w), -float64(w)}
			dst := make([]float64, 0, 64)
			for i := 0; i < 1500; i++ {
				now := 2 + float64(i)*0.06
				ds, comp := series[rng.Intn(len(series))], comps[rng.Intn(len(comps))]
				if i%5 == 0 {
					b.WindowStats(ds, comp, now-4, now-2)
					b.DatasetHealth(ds, now)
					continue
				}
				dst = append(dst[:0], prefix...)
				dst = b.AppendSeries(dst, ds, comp, now-2, now)
				if dst[0] != prefix[0] || dst[1] != prefix[1] {
					t.Errorf("worker %d: prefix rewritten", w)
					return
				}
				if got := dst[2:]; len(got) > 0 && !sameSeries(got, ref.SeriesWindow(ds, comp, now-2, now)) {
					t.Errorf("worker %d: %s/%s at %v is not the source's window", w, ds, comp, now)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestAppendSeriesAllocations: into a buffer with room, neither decorator's
// pull allocates — the chaos layer corrupting or lagging a window, nor the
// breaker gating and recording one it passes through — and neither do the
// chaos layer's stats over a corrupted window nor the breaker's other
// per-pull methods. Each row also checks its answer: the number of values
// or events, or 1 for window stats equal to the source's (the corrupted
// series' own, for the chaos layer) or an available dataset.
func TestAppendSeriesAllocations(t *testing.T) {
	tel := equivalenceTelemetry()
	src := chaos.New(tel, equivalenceSchedule(), 7)
	b := NewBreaker(tel, equivalenceParams)
	dst := make([]float64, 0, 64)
	events := tel.EventCount(cloudsim.DSSyslog, "tor1.c1.dc1", 40, 42)
	if events == 0 {
		t.Fatal("the anomaly left no syslog events to count")
	}
	stats := monitoring.StatsOf(tel.SeriesWindow(cloudsim.DSTemp, "tor1.c1.dc1", 40, 42))
	corrupted := monitoring.StatsOf(src.SeriesWindow(cloudsim.DSIfCounters, "tor1.c1.dc1", 40, 42))
	for _, c := range []struct {
		name string
		run  func() int
		want int
	}{
		{"Chaos.AppendSeries/corrupted", func() int {
			dst = src.AppendSeries(dst[:0], cloudsim.DSIfCounters, "tor1.c1.dc1", 40, 42)
			return len(dst)
		}, 20},
		{"Chaos.AppendSeries/stale", func() int {
			dst = src.AppendSeries(dst[:0], cloudsim.DSCanary, "c1.dc1", 48, 50)
			return len(dst)
		}, 20},
		{"Chaos.WindowStats/corrupted", func() int {
			if st, ok := src.WindowStats(cloudsim.DSIfCounters, "tor1.c1.dc1", 40, 42); ok && sameStats(st, corrupted) {
				return 1
			}
			return 0
		}, 1},
		{"Breaker.AppendSeries", func() int {
			dst = b.AppendSeries(dst[:0], cloudsim.DSTemp, "tor1.c1.dc1", 40, 42)
			return len(dst)
		}, 20},
		{"Breaker.WindowStats", func() int {
			if st, ok := b.WindowStats(cloudsim.DSTemp, "tor1.c1.dc1", 40, 42); ok && sameStats(st, stats) {
				return 1
			}
			return 0
		}, 1},
		{"Breaker.EventCount", func() int { return b.EventCount(cloudsim.DSSyslog, "tor1.c1.dc1", 40, 42) }, events},
		{"Breaker.DatasetHealth", func() int {
			if b.DatasetHealth(cloudsim.DSTemp, 42).Available {
				return 1
			}
			return 0
		}, 1},
	} {
		if got := c.run(); got != c.want {
			t.Errorf("%s: an answer of %d, want %d", c.name, got, c.want)
		}
		allocgate.Check(t, "faults."+c.name, 0, func() { c.run() })
	}
}

// TestChaosAppendSeriesLeavesInnerAlone: corruption rewrites the appended
// copy, never the storage of a source that hands out its own slice.
func TestChaosAppendSeriesLeavesInnerAlone(t *testing.T) {
	shared := &sharedSliceSource{vals: []float64{1, 2, 3, 4, 5, 6, 7, 8}}
	c := chaos.New(shared, chaos.Schedule{Corruptions: []chaos.Corruption{
		{Dataset: "lat", Start: 0, End: chaos.Forever, NaNProb: 0.5, SpikeProb: 0.5},
	}}, 2)
	got := c.AppendSeries([]float64{42}, "lat", "s1", 0, 8)
	if len(got) != 9 || got[0] != 42 {
		t.Fatalf("AppendSeries = %v", got)
	}
	if sameSeries(got[1:], shared.vals) {
		t.Fatal("corruption at probability 1 changed nothing")
	}
	for i, v := range shared.vals {
		if v != float64(i+1) {
			t.Fatalf("the inner source's slice was rewritten: %v", shared.vals)
		}
	}
	if !sameSeries(c.SeriesWindow("lat", "s1", 0, 8), got[1:]) {
		t.Fatal("SeriesWindow and AppendSeries corrupt the same window differently")
	}
}

type sharedSliceSource struct{ vals []float64 }

func (s *sharedSliceSource) Datasets() []monitoring.Descriptor {
	return []monitoring.Descriptor{{Name: "lat", Type: monitoring.TimeSeries}}
}
func (s *sharedSliceSource) SeriesWindow(string, string, float64, float64) []float64 { return s.vals }
func (s *sharedSliceSource) EventsWindow(string, string, float64, float64) []monitoring.EventRecord {
	return nil
}
