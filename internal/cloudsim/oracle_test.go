package cloudsim

import (
	"math"
	"math/rand"
	"testing"

	"scouts/internal/monitoring"
	"scouts/internal/topology"
)

// The string-keyed hashes and the synthesis loops as they read before the
// per-series key was hoisted out of the tick loop, kept verbatim as the
// reference the differential tests below compare against. hashUnit and
// hashNorm keep their names (production now has unitAt/normAt); the window
// loops that collide with production names carry an "old" prefix.

// hashUnit returns a deterministic uniform in [0, 1).
func hashUnit(seed uint64, dataset, component string, k int) float64 {
	h := mix(seed ^ fnv1a(dataset)*3 ^ fnv1a(component)*5 ^ uint64(k)*0x9E3779B97F4A7C15)
	return float64(h>>11) / (1 << 53)
}

// hashNorm returns a deterministic standard normal via Box-Muller.
func hashNorm(seed uint64, dataset, component string, k int) float64 {
	u1 := hashUnit(seed^0xABCD, dataset, component, k)
	u2 := hashUnit(seed^0x1234, dataset, component, k)
	if u1 < 1e-15 {
		u1 = 1e-15
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// oldRelevantAnomalies is relevantAnomalies growing its answer from nil.
func (t *Telemetry) oldRelevantAnomalies(dataset, component string, from, to float64) []*Anomaly {
	return t.relevantAnomalies(nil, dataset, component, from, to)
}

func (t *Telemetry) oldClusterOffset(spec *datasetSpec, component string) float64 {
	cluster := t.topo.ClusterOf(component)
	if cluster == "" {
		cluster = component
	}
	u := hashUnit(t.seed, spec.desc.Name, cluster, 0)
	return (u*2 - 1) * spec.perClust
}

// oldSeriesWindow is SeriesWindow over the old seriesInto(nil, …).
func (t *Telemetry) oldSeriesWindow(dataset, component string, from, to float64) []float64 {
	spec := t.seriesSpec(dataset, component)
	if spec == nil {
		return nil
	}
	var buf []float64
	first := int(math.Ceil(from / Tick))
	offset := t.oldClusterOffset(spec, component)
	anoms := t.oldRelevantAnomalies(dataset, component, from, to)
	for k := first; ; k++ {
		ts := float64(k) * Tick
		if ts >= to {
			break
		}
		meanShift, stdScale := 0.0, 1.0
		if len(anoms) > 0 {
			meanShift, stdScale, _, _ = effectsAt(dataset, anoms, ts)
		}
		noise := hashNorm(t.seed, dataset, component, k)
		v := spec.base + offset + meanShift + noise*spec.sigma*stdScale
		buf = append(buf, v)
	}
	return buf
}

// oldEventsWindow is EventsWindow with the string-keyed draws.
func (t *Telemetry) oldEventsWindow(dataset, component string, from, to float64) []monitoring.EventRecord {
	t.mu.RLock()
	spec, ok := t.byDS[dataset]
	removed := t.removed[dataset]
	t.mu.RUnlock()
	if !ok || removed || spec.desc.Type != monitoring.Event || !t.covered(spec, component) {
		return nil
	}
	first := int(math.Ceil(from / Tick))
	var out []monitoring.EventRecord
	anoms := t.oldRelevantAnomalies(dataset, component, from, to)
	for k := first; ; k++ {
		ts := float64(k) * Tick
		if ts >= to {
			break
		}
		extraRate, kind := 0.0, ""
		if len(anoms) > 0 {
			_, _, extraRate, kind = effectsAt(dataset, anoms, ts)
		}
		if kind == "" {
			kind = spec.kind
		}
		rate := spec.bgRate + extraRate
		p := rate * Tick
		if p > 0 && hashUnit(t.seed, dataset, component, k) < p {
			out = append(out, monitoring.EventRecord{
				Time: ts + hashUnit(t.seed+1, dataset, component, k)*Tick,
				Kind: kind,
			})
		}
	}
	return out
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func allNames(topo *topology.Topology) []string {
	var out []string
	for _, typ := range topology.AllTypes {
		out = append(out, topo.Names(typ)...)
	}
	return out
}

// TestHoistedHashMatchesStringKeyed: deriving every draw from the per-series
// key is the same XOR in a different association, so unitAt/normAt must
// equal the string-keyed forms to the bit — on random inputs and on every
// (dataset, component) pair the simulator can be asked about.
func TestHoistedHashMatchesStringKeyed(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	randString := func() string {
		b := make([]byte, rng.Intn(24))
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		return string(b)
	}
	check := func(seed uint64, dataset, component string, k int) {
		t.Helper()
		key := seriesKey(dataset, component)
		if got, want := unitAt(seed, key, k), hashUnit(seed, dataset, component, k); !sameBits(got, want) {
			t.Fatalf("unitAt(%#x, %q, %q, %d) = %v, string-keyed %v", seed, dataset, component, k, got, want)
		}
		if got, want := normAt(seed, key, k), hashNorm(seed, dataset, component, k); !sameBits(got, want) {
			t.Fatalf("normAt(%#x, %q, %q, %d) = %v, string-keyed %v", seed, dataset, component, k, got, want)
		}
	}
	for i := 0; i < 100_000; i++ {
		k := int(rng.Int63n(1<<40)) - 1<<20
		if i%4 == 0 {
			k = rng.Intn(4000)
		}
		check(rng.Uint64(), randString(), randString(), k)
	}
	topo := topology.Build(topology.Params{})
	names := allNames(topo)
	for _, s := range specs() {
		for _, name := range names {
			check(rng.Uint64(), s.desc.Name, name, rng.Intn(100_000))
		}
	}
}

// oracleTelemetry is a simulator with every kind of input the append path
// has to get right: overlapping anomalies on a switch and a server, and a
// deprecated dataset.
func oracleTelemetry() *Telemetry {
	tel := New(Params{Seed: 11, Days: 20, IncidentsPerDay: 6}).Telemetry()
	tel.AddAnomaly(Anomaly{Component: "tor1.c1.dc1", Start: 40, End: 44, Effects: []Effect{
		{Dataset: DSTemp, MeanShift: 12, StdScale: 3},
		{Dataset: DSSyslog, EventRate: 40, EventKind: "LINK_FLAP"},
		{Dataset: DSFCS, EventRate: 9},
	}})
	tel.AddAnomaly(Anomaly{Component: "tor1.c1.dc1", Start: 42, End: 43, Effects: []Effect{
		{Dataset: DSTemp, MeanShift: -3},
		{Dataset: DSPFC, StdScale: 5},
	}})
	tel.AddAnomaly(Anomaly{Component: "srv2.c1.dc1", Start: 41.5, End: 47, Effects: []Effect{
		{Dataset: DSPingmesh, MeanShift: 4, StdScale: 2},
		{Dataset: DSReboots, EventRate: 3},
	}})
	tel.Deprecate(DSLinkLoss)
	return tel
}

var oracleWindows = []struct{ from, to float64 }{
	{40, 42},       // the Scout's look-back window
	{38, 42},       // the doubled CPD+ window
	{41.95, 43.05}, // off-tick bounds inside overlapping anomalies
	{40, 50},       // 100 ticks: past WindowStats' 64-sample scratch
	{42, 42},       // empty
	{43, 42},       // inverted
	{42.01, 42.05}, // between two ticks
	{0, 0.1},       // a single tick at the origin
}

// TestAppendSeriesMatchesOldWindow: for every dataset × a component of every
// type (covered or not) × every window shape, AppendSeries onto a prefix is
// append(prefix, SeriesWindow…), which is the old string-keyed synthesis,
// which is what WindowStats reduces — and the prefix is never touched.
func TestAppendSeriesMatchesOldWindow(t *testing.T) {
	tel := oracleTelemetry()
	comps := []string{"tor1.c1.dc1", "agg1.c1.dc1", "srv2.c1.dc1", "vm1.c1.dc1", "c1.dc1", "c2.dc2", "dc1", "nosuch.c9.dc9"}
	datasets := []string{"nosuch"}
	for _, s := range specs() {
		datasets = append(datasets, s.desc.Name)
	}
	prefix := []float64{math.NaN(), -1, 7.25}
	nonEmpty, long := 0, 0
	for _, ds := range datasets {
		for _, comp := range comps {
			for _, w := range oracleWindows {
				want := tel.oldSeriesWindow(ds, comp, w.from, w.to)
				got := tel.SeriesWindow(ds, comp, w.from, w.to)
				if (got == nil) != (want == nil) || len(got) != len(want) {
					t.Fatalf("%s/%s [%v,%v): SeriesWindow has %d values (nil=%v), old %d (nil=%v)",
						ds, comp, w.from, w.to, len(got), got == nil, len(want), want == nil)
				}
				for i := range want {
					if !sameBits(got[i], want[i]) {
						t.Fatalf("%s/%s [%v,%v): value %d is %v, old %v", ds, comp, w.from, w.to, i, got[i], want[i])
					}
				}

				// Spare capacity holds a canary the append may overwrite but
				// the prefix below it must survive bit for bit.
				dst := append(make([]float64, 0, len(prefix)+5), prefix...)
				out := tel.AppendSeries(dst, ds, comp, w.from, w.to)
				if len(out) != len(prefix)+len(want) {
					t.Fatalf("%s/%s [%v,%v): AppendSeries grew dst by %d, want %d",
						ds, comp, w.from, w.to, len(out)-len(prefix), len(want))
				}
				for i := range prefix {
					if !sameBits(out[i], prefix[i]) || !sameBits(dst[i], prefix[i]) {
						t.Fatalf("%s/%s [%v,%v): prefix cell %d was rewritten", ds, comp, w.from, w.to, i)
					}
				}
				for i := range want {
					if !sameBits(out[len(prefix)+i], want[i]) {
						t.Fatalf("%s/%s [%v,%v): appended value %d is %v, old %v",
							ds, comp, w.from, w.to, i, out[len(prefix)+i], want[i])
					}
				}

				st, ok := tel.WindowStats(ds, comp, w.from, w.to)
				if ok != (len(want) > 0) {
					t.Fatalf("%s/%s [%v,%v): WindowStats ok=%v for %d values", ds, comp, w.from, w.to, ok, len(want))
				}
				if ok && st != monitoring.StatsOf(want) {
					t.Fatalf("%s/%s [%v,%v): WindowStats %+v, StatsOf(old window) %+v",
						ds, comp, w.from, w.to, st, monitoring.StatsOf(want))
				}
				if len(want) > 0 {
					nonEmpty++
				}
				if len(want) > 64 {
					long++
				}
			}
		}
	}
	if nonEmpty < 50 || long < 10 {
		t.Fatalf("the oracle compared only %d non-empty and %d >64-tick windows", nonEmpty, long)
	}
	if tel.SeriesWindow(DSLinkLoss, "tor1.c1.dc1", 40, 42) != nil {
		t.Fatal("a deprecated dataset must answer nil")
	}
	tel.Restore(DSLinkLoss)
	if got, want := tel.SeriesWindow(DSLinkLoss, "tor1.c1.dc1", 40, 42), tel.oldSeriesWindow(DSLinkLoss, "tor1.c1.dc1", 40, 42); len(got) != 20 || len(want) != 20 {
		t.Fatalf("restored dataset answers %d / %d values, want 20", len(got), len(want))
	}
}

// TestEventsMatchOldWindow: the hoisted key in EventsWindow and EventCount
// draws the same occurrences and the same in-tick offsets.
func TestEventsMatchOldWindow(t *testing.T) {
	tel := oracleTelemetry()
	comps := []string{"tor1.c1.dc1", "agg2.c3.dc2", "srv2.c1.dc1", "vm1.c1.dc1", "c1.dc1", "nosuch"}
	events := 0
	for _, s := range specs() {
		for _, comp := range comps {
			for _, w := range append(oracleWindows, struct{ from, to float64 }{0, 480}) {
				want := tel.oldEventsWindow(s.desc.Name, comp, w.from, w.to)
				got := tel.EventsWindow(s.desc.Name, comp, w.from, w.to)
				if len(got) != len(want) || (got == nil) != (want == nil) {
					t.Fatalf("%s/%s [%v,%v): %d events, old %d", s.desc.Name, comp, w.from, w.to, len(got), len(want))
				}
				for i := range want {
					if got[i].Kind != want[i].Kind || !sameBits(got[i].Time, want[i].Time) {
						t.Fatalf("%s/%s [%v,%v): event %d is %+v, old %+v", s.desc.Name, comp, w.from, w.to, i, got[i], want[i])
					}
				}
				if n := tel.EventCount(s.desc.Name, comp, w.from, w.to); n != len(want) {
					t.Fatalf("%s/%s [%v,%v): EventCount %d, old window has %d", s.desc.Name, comp, w.from, w.to, n, len(want))
				}
				events += len(want)
			}
		}
	}
	if events < 100 {
		t.Fatalf("the oracle compared only %d events", events)
	}
}

// TestAppendSeriesAllocatesNothing: with room in the caller's buffer the
// pull is allocation-free, overlapping anomalies included; SeriesWindow pays
// exactly its result.
func TestAppendSeriesAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	tel := oracleTelemetry()
	buf := make([]float64, 0, 256)
	for _, tc := range []struct {
		ds, comp string
		from, to float64
	}{
		{DSTemp, "tor1.c1.dc1", 41, 43},     // two overlapping anomalies
		{DSCPU, "srv1.c2.dc1", 100, 102},    // quiet
		{DSPingmesh, "tor1.c1.dc1", 0, 2},   // uncovered
		{DSLinkLoss, "tor1.c1.dc1", 0, 2},   // deprecated
		{DSCanary, "c1.dc1", 40, 50},        // 100 ticks
		{DSTemp, "tor1.c1.dc1", 42, 42},     // empty
		{DSSyslog, "tor1.c1.dc1", 40, 44},   // event dataset
		{"nosuch", "tor1.c1.dc1", 40, 44},   // unknown
		{DSTemp, "nosuch.c1.dc1", 40, 44},   // unknown component
		{DSIfCounters, "agg1.c4.dc2", 7, 9}, // another cluster
	} {
		if n := testing.AllocsPerRun(50, func() {
			buf = tel.AppendSeries(buf[:0], tc.ds, tc.comp, tc.from, tc.to)
		}); n != 0 {
			t.Errorf("AppendSeries(%s, %s, [%v,%v)) allocates %v times into a buffer with room", tc.ds, tc.comp, tc.from, tc.to, n)
		}
	}
	var sink []float64
	if n := testing.AllocsPerRun(50, func() {
		sink = tel.SeriesWindow(DSTemp, "tor1.c1.dc1", 41, 43)
	}); n != 1 || len(sink) != 20 {
		t.Errorf("SeriesWindow allocates %v times for %d values, want 1 (the pre-sized result)", n, len(sink))
	}
	if n := testing.AllocsPerRun(50, func() { tel.WindowStats(DSCanary, "c1.dc1", 40, 46) }); n != 0 {
		t.Errorf("WindowStats allocates %v times", n)
	}
	if n := testing.AllocsPerRun(50, func() { tel.EventCount(DSSyslog, "tor1.c1.dc1", 40, 44) }); n != 0 {
		t.Errorf("EventCount allocates %v times", n)
	}
}
