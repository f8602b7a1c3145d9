// The chaos plane (internal/chaos) is tested here, beside the breaker
// tests that inject their faults with it: both run over fakeSource and
// the equivalence telemetry, and the breaker's contract is stated against
// the faults chaos.Source injects.

package faults

import (
	"math"
	"reflect"
	"testing"

	"scouts/internal/chaos"
	"scouts/internal/cloudsim"
	"scouts/internal/monitoring"
	"scouts/internal/topology"
)

// fakeSource is a tiny controllable DataSource: one time-series dataset
// ("lat") and one event dataset ("err"), with one sample per model hour.
type fakeSource struct {
	seriesCalls int
	emptyFor    map[string]bool // component -> answer empty windows
}

func (f *fakeSource) Datasets() []monitoring.Descriptor {
	return []monitoring.Descriptor{
		{Name: "lat", Type: monitoring.TimeSeries, ComponentType: topology.TypeServer},
		{Name: "err", Type: monitoring.Event, ComponentType: topology.TypeSwitch},
	}
}

func (f *fakeSource) SeriesWindow(dataset, component string, from, to float64) []float64 {
	if dataset != "lat" || f.emptyFor[component] {
		return nil
	}
	f.seriesCalls++
	var out []float64
	for k := int(math.Ceil(from)); float64(k) < to; k++ {
		out = append(out, float64(k)) // value == its own hour, so shifts are visible
	}
	return out
}

func (f *fakeSource) EventsWindow(dataset, component string, from, to float64) []monitoring.EventRecord {
	if dataset != "err" {
		return nil
	}
	var out []monitoring.EventRecord
	for k := int(math.Ceil(from)); float64(k) < to; k++ {
		out = append(out, monitoring.EventRecord{Time: float64(k), Kind: "E"})
	}
	return out
}

func TestChaosBlackoutFullDataset(t *testing.T) {
	src := &fakeSource{}
	c := chaos.New(src, chaos.Schedule{
		Blackouts: []chaos.Blackout{{Dataset: "lat", Start: 10, End: 20}},
	}, 1)

	if got := c.SeriesWindow("lat", "s1", 5, 8); len(got) == 0 {
		t.Fatal("window before the blackout should answer")
	}
	if got := c.SeriesWindow("lat", "s1", 12, 15); got != nil {
		t.Fatalf("blacked-out window answered %v", got)
	}
	if _, ok := c.WindowStats("lat", "s1", 12, 15); ok {
		t.Fatal("blacked-out stats should be unavailable")
	}
	if got := c.SeriesWindow("lat", "s1", 22, 25); len(got) == 0 {
		t.Fatal("window after the blackout should answer")
	}

	if h := c.DatasetHealth("lat", 15); h.Available {
		t.Fatal("health should report the dataset dark at t=15")
	}
	if h := c.DatasetHealth("lat", 25); !h.Available {
		t.Fatal("health should report the dataset live at t=25")
	}
	if len(c.Datasets()) != 2 {
		t.Fatal("the registry must stay intact during a blackout")
	}
}

func TestChaosClusterScopedBlackout(t *testing.T) {
	src := &fakeSource{}
	c := chaos.New(src, chaos.Schedule{
		Blackouts: []chaos.Blackout{{Dataset: "lat", Cluster: "cl1", Start: 0, End: chaos.Forever}},
	}, 1)
	c.ClusterOf = func(comp string) string {
		if comp == "s1" {
			return "cl1"
		}
		return "cl2"
	}

	if got := c.SeriesWindow("lat", "s1", 2, 5); got != nil {
		t.Fatalf("cl1 component should be dark, got %v", got)
	}
	if got := c.SeriesWindow("lat", "s2", 2, 5); len(got) == 0 {
		t.Fatal("cl2 component should still answer")
	}
	// A partial outage must not mark the dataset globally unavailable.
	if h := c.DatasetHealth("lat", 3); !h.Available {
		t.Fatal("cluster-scoped blackout should keep dataset-level health available")
	}
}

func TestChaosStaleness(t *testing.T) {
	src := &fakeSource{}
	c := chaos.New(src, chaos.Schedule{
		Stalenesses: []chaos.Staleness{{Dataset: "lat", Start: 100, End: chaos.Forever, Lag: 10}},
	}, 1)

	want := src.SeriesWindow("lat", "s1", 110, 115)
	got := c.SeriesWindow("lat", "s1", 120, 125)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stale window = %v, want frozen values %v", got, want)
	}
	st, ok := c.WindowStats("lat", "s1", 120, 125)
	if !ok || st.Mean != monitoring.StatsOf(want).Mean {
		t.Fatalf("stale stats should aggregate the shifted window: %+v", st)
	}
	if h := c.DatasetHealth("lat", 120); h.Staleness != 10 {
		t.Fatalf("staleness = %v, want 10", h.Staleness)
	}
	if h := c.DatasetHealth("lat", 50); h.Staleness != 0 {
		t.Fatalf("staleness before schedule = %v, want 0", h.Staleness)
	}
}

func TestChaosCorruptionDeterministic(t *testing.T) {
	src := &fakeSource{}
	allNaN := chaos.New(src, chaos.Schedule{
		Corruptions: []chaos.Corruption{{Dataset: "lat", Start: 0, End: chaos.Forever, NaNProb: 1}},
	}, 7)
	for _, v := range allNaN.SeriesWindow("lat", "s1", 2, 8) {
		if !math.IsNaN(v) {
			t.Fatalf("NaNProb=1 should NaN every sample, got %v", v)
		}
	}

	allSpike := chaos.New(src, chaos.Schedule{
		Corruptions: []chaos.Corruption{{Dataset: "lat", Start: 0, End: chaos.Forever, SpikeProb: 1, SpikeScale: 3}},
	}, 7)
	clean := src.SeriesWindow("lat", "s1", 2, 8)
	for i, v := range allSpike.SeriesWindow("lat", "s1", 2, 8) {
		if v != clean[i]*3 {
			t.Fatalf("sample %d = %v, want %v", i, v, clean[i]*3)
		}
	}

	mixed := chaos.New(src, chaos.Schedule{
		Corruptions: []chaos.Corruption{{Dataset: "lat", Start: 0, End: chaos.Forever, NaNProb: 0.3, SpikeProb: 0.2}},
	}, 7)
	a := mixed.SeriesWindow("lat", "s1", 0, 50)
	b := mixed.SeriesWindow("lat", "s1", 0, 50)
	for i := range a {
		same := a[i] == b[i] || (math.IsNaN(a[i]) && math.IsNaN(b[i]))
		if !same {
			t.Fatalf("corruption not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
	// WindowStats must agree with the corrupted series, not the clean one.
	st, ok := mixed.WindowStats("lat", "s1", 0, 50)
	if !ok {
		t.Fatal("stats unavailable")
	}
	if !math.IsNaN(st.Mean) {
		// NaNs in the window poison the mean; a clean mean means stats
		// bypassed the corruption.
		t.Fatalf("stats ignored injected NaNs: mean=%v", st.Mean)
	}

	// Over an allocation-free source the corrupted aggregates are the
	// corrupted series' own, bit for bit (what the window costs is a row of
	// TestAppendSeriesAllocations).
	real := chaos.New(equivalenceTelemetry(), equivalenceSchedule(), 7)
	const ds, comp = cloudsim.DSIfCounters, "tor1.c1.dc1" // corrupted throughout
	for _, w := range [][2]float64{{40, 42}, {38, 40}, {0, 2}, {41.05, 43.05}} {
		got, ok := real.WindowStats(ds, comp, w[0], w[1])
		vals := real.SeriesWindow(ds, comp, w[0], w[1])
		if want := monitoring.StatsOf(vals); !ok || len(vals) != 20 || !sameStats(got, want) {
			t.Fatalf("window %v: WindowStats %+v (ok=%v), StatsOf(SeriesWindow) %+v over %d samples", w, got, ok, want, len(vals))
		}
	}
}

func TestChaosFlap(t *testing.T) {
	src := &fakeSource{}
	c := chaos.New(src, chaos.Schedule{
		Flaps: []chaos.Flap{{Dataset: "lat", Start: 0, End: chaos.Forever, Period: 10, Duty: 0.5}},
	}, 1)

	// Phase [0, 0.5) of each period is up, [0.5, 1) is down.
	if got := c.SeriesWindow("lat", "s1", 0, 3); len(got) == 0 {
		t.Fatal("up phase should answer")
	}
	if got := c.SeriesWindow("lat", "s1", 4, 7); got != nil {
		t.Fatalf("down phase answered %v", got)
	}
	if h := c.DatasetHealth("lat", 2); !h.Available {
		t.Fatal("health should be up at t=2")
	}
	if h := c.DatasetHealth("lat", 7); h.Available {
		t.Fatal("health should be down at t=7")
	}
	if got := c.SeriesWindow("lat", "s1", 10, 13); len(got) == 0 {
		t.Fatal("next period's up phase should answer")
	}
}

func TestChaosEventGating(t *testing.T) {
	src := &fakeSource{}
	c := chaos.New(src, chaos.Schedule{
		Blackouts:   []chaos.Blackout{{Dataset: "err", Start: 10, End: 20}},
		Stalenesses: []chaos.Staleness{{Dataset: "err", Start: 30, End: chaos.Forever, Lag: 5}},
	}, 1)

	if got := c.EventsWindow("err", "sw1", 12, 15); got != nil {
		t.Fatalf("blacked-out events answered %v", got)
	}
	if n := c.EventCount("err", "sw1", 12, 15); n != 0 {
		t.Fatalf("blacked-out event count = %d", n)
	}
	ev := c.EventsWindow("err", "sw1", 35, 38)
	if len(ev) == 0 || ev[0].Time != 30 {
		t.Fatalf("stale events should come from the shifted window: %+v", ev)
	}
	if n := c.EventCount("err", "sw1", 35, 38); n != len(ev) {
		t.Fatalf("EventCount %d disagrees with EventsWindow %d", n, len(ev))
	}
}
