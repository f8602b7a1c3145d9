package monitoring_test

import (
	"testing"

	"scouts/internal/chaos"
	"scouts/internal/cloudsim"
	"scouts/internal/faults"
	"scouts/internal/monitoring"
)

// liveSource is one stack anything in the tree serves from, with its own
// aggregate capability (the adapter would satisfy these tests trivially).
type liveSource struct {
	name  string
	src   monitoring.DataSource
	stats monitoring.StatsSource
}

// liveSources: the simulator, the simulator behind a breaker (scoutd), and
// the simulator behind a chaos schedule whose only fault lies outside every
// window below.
func liveSources(t *testing.T) []liveSource {
	topo := cloudsim.New(cloudsim.Params{Seed: 3, Days: 5, IncidentsPerDay: 4}).Topology()
	tel := cloudsim.NewTelemetry(topo, 3, cloudsim.Anomaly{Component: "tor1.c1.dc1", Start: 20, End: 70, Effects: []cloudsim.Effect{
		{Dataset: cloudsim.DSTemp, MeanShift: 9, StdScale: 2},
		{Dataset: cloudsim.DSSyslog, EventRate: 5},
	}})
	later := chaos.Schedule{Blackouts: []chaos.Blackout{{Dataset: cloudsim.DSTemp, Start: 500, End: 600}}}
	out := []liveSource{
		{name: "telemetry", src: tel},
		{name: "breaker", src: faults.NewBreaker(tel, faults.BreakerParams{})},
		{name: "chaos", src: chaos.New(tel, later, 1)},
	}
	for i := range out {
		native, ok := out[i].src.(monitoring.StatsSource)
		if !ok {
			t.Fatalf("%s: no native StatsSource", out[i].name)
		}
		out[i].stats = native
	}
	return out
}

// contractWindows: in range (quiet, inside the anomaly, off the tick grid,
// a single tick), empty, and unknown to the source.
var contractWindows = []struct {
	comp     string
	from, to float64
}{
	{"tor1.c1.dc1", 2, 4}, {"tor1.c1.dc1", 38, 40}, {"tor1.c1.dc1", 40.03, 42.03},
	{"tor1.c1.dc1", 7, 7.1}, {"tor1.c1.dc1", 19, 71},
	{"tor1.c1.dc1", 5, 5}, {"tor1.c1.dc1", 9, 8},
	{"nosuch.c1.dc1", 2, 4},
}

// TestEventCountMatchesWindow: on every live source the search-only count
// is the length of the materialized window.
func TestEventCountMatchesWindow(t *testing.T) {
	for _, ls := range liveSources(t) {
		total := 0
		for _, ds := range []string{cloudsim.DSSyslog, "nosuch"} {
			for _, w := range contractWindows {
				got := ls.stats.EventCount(ds, w.comp, w.from, w.to)
				if want := len(ls.src.EventsWindow(ds, w.comp, w.from, w.to)); got != want {
					t.Errorf("%s: %s/%s [%v,%v): EventCount=%d, EventsWindow has %d", ls.name, ds, w.comp, w.from, w.to, got, want)
				}
				total += got
			}
		}
		if total < 100 {
			t.Errorf("%s: only %d events compared", ls.name, total)
		}
	}
}

// TestWindowStatsMatchesMaterialized: on every live source the aggregate
// query is StatsOf over the materialized window, bit for bit, and ok exactly
// when that window has samples.
func TestWindowStatsMatchesMaterialized(t *testing.T) {
	for _, ls := range liveSources(t) {
		answered := 0
		for _, ds := range []string{cloudsim.DSTemp, "nosuch"} {
			for _, w := range contractWindows {
				got, ok := ls.stats.WindowStats(ds, w.comp, w.from, w.to)
				vals := ls.src.SeriesWindow(ds, w.comp, w.from, w.to)
				if ok != (len(vals) > 0) || got != monitoring.StatsOf(vals) {
					t.Errorf("%s: %s/%s [%v,%v): WindowStats %+v (ok=%v), StatsOf(SeriesWindow) %+v", ls.name, ds, w.comp, w.from, w.to, got, ok, monitoring.StatsOf(vals))
				}
				if ok {
					answered++
				}
			}
		}
		if answered != 5 {
			t.Errorf("%s: %d windows answered, want the 5 in range", ls.name, answered)
		}
	}
}
