package cloudsim

import (
	"testing"

	"scouts/internal/allocgate"
)

// overlapTelemetry is a simulator with every kind of input the append path
// has to get right: overlapping anomalies on a switch and a server.
func overlapTelemetry() *Telemetry {
	topo := New(Params{Seed: 11, Days: 20, IncidentsPerDay: 6}).Topology()
	return NewTelemetry(topo, 11,
		Anomaly{Component: "tor1.c1.dc1", Start: 40, End: 44, Effects: []Effect{
			{Dataset: DSTemp, MeanShift: 12, StdScale: 3},
			{Dataset: DSSyslog, EventRate: 40, EventKind: "LINK_FLAP"},
			{Dataset: DSFCS, EventRate: 9},
		}},
		Anomaly{Component: "tor1.c1.dc1", Start: 42, End: 43, Effects: []Effect{
			{Dataset: DSTemp, MeanShift: -3},
			{Dataset: DSPFC, StdScale: 5},
		}},
		Anomaly{Component: "srv2.c1.dc1", Start: 41.5, End: 47, Effects: []Effect{
			{Dataset: DSPingmesh, MeanShift: 4, StdScale: 2},
			{Dataset: DSReboots, EventRate: 3},
		}},
	)
}

// TestAppendSeriesAllocatesNothing: with room in the caller's buffer the
// pull is allocation-free, overlapping anomalies included; SeriesWindow pays
// exactly its result.
func TestAppendSeriesAllocatesNothing(t *testing.T) {
	tel := overlapTelemetry()
	buf := make([]float64, 0, 256)
	for _, tc := range []struct {
		name, ds, comp string
		from, to       float64
	}{
		{"overlapping", DSTemp, "tor1.c1.dc1", 41, 43},
		{"quiet", DSCPU, "srv1.c2.dc1", 100, 102},
		{"uncovered", DSPingmesh, "tor1.c1.dc1", 0, 2},
		{"100-ticks", DSCanary, "c1.dc1", 40, 50},
		{"empty", DSTemp, "tor1.c1.dc1", 42, 42},
		{"event-dataset", DSSyslog, "tor1.c1.dc1", 40, 44},
		{"unknown-dataset", "nosuch", "tor1.c1.dc1", 40, 44},
		{"unknown-component", DSTemp, "nosuch.c1.dc1", 40, 44},
		{"another-cluster", DSIfCounters, "agg1.c4.dc2", 7, 9},
	} {
		allocgate.Check(t, "cloudsim.AppendSeries/"+tc.name, 0, func() {
			buf = tel.AppendSeries(buf[:0], tc.ds, tc.comp, tc.from, tc.to)
		})
	}
	if sink := tel.SeriesWindow(DSTemp, "tor1.c1.dc1", 41, 43); len(sink) != 20 {
		t.Errorf("SeriesWindow returned %d values, want 20", len(sink))
	}
	allocgate.Check(t, "cloudsim.SeriesWindow", 1, func() { tel.SeriesWindow(DSTemp, "tor1.c1.dc1", 41, 43) })
	allocgate.Check(t, "cloudsim.WindowStats", 0, func() { tel.WindowStats(DSCanary, "c1.dc1", 40, 46) })
	allocgate.Check(t, "cloudsim.EventCount", 0, func() { tel.EventCount(DSSyslog, "tor1.c1.dc1", 40, 44) })
}
