package core

import (
	"testing"

	"scouts/internal/cloudsim"
	"scouts/internal/monitoring"
)

// windowOnly hides the Telemetry's StatsSource capability, forcing the
// builder onto the window-materializing adapter — the pre-aggregate code
// path.
type windowOnly struct{ monitoring.DataSource }

// TestFeaturizeStatsPathBitIdentical proves the aggregate-backed
// featurization is a pure optimization on the simulator path: for the same
// incident the stats-capable source and the window-materializing fallback
// produce bit-identical feature vectors and CPD inputs (the simulator
// computes window aggregates with the exact arithmetic of the materialized
// path; DESIGN.md §7.2 records the moment-derived store that could not).
func TestFeaturizeStatsPathBitIdentical(t *testing.T) {
	gen := cloudsim.New(cloudsim.Params{Seed: 5, Days: 10, IncidentsPerDay: 5})
	cfg, err := ParseConfig(DefaultPhyNetConfig)
	if err != nil {
		t.Fatal(err)
	}
	tel := cloudsim.NewTelemetry(gen.Topology(), 5, cloudsim.Anomaly{
		Component: "tor1.c1.dc1",
		Start:     40,
		End:       44,
		Effects: []cloudsim.Effect{
			{Dataset: cloudsim.DSTemp, MeanShift: 12, StdScale: 3},
			{Dataset: cloudsim.DSSyslog, EventRate: 4},
		},
	})
	fast := NewFeatureBuilder(cfg, gen.Topology(), tel)
	slow := NewFeatureBuilder(cfg, gen.Topology(), windowOnly{tel})

	for _, tc := range []struct{ title, body string }{
		{"temp alarm", "tor1.c1.dc1 overheating, syslog bursts"},
		{"cluster degraded", "cluster c1.dc1 is degraded"},
		{"server issue", "srv1.c1.dc1 unreachable from vm1.c1.dc1"},
	} {
		ex := fast.Extract(tc.title, tc.body, nil)
		for _, at := range []float64{42.5, 100.0} {
			xf := fast.Featurize(ex, at)
			xs := slow.Featurize(ex, at)
			for i := range xf {
				if xf[i] != xs[i] {
					t.Fatalf("%s at t=%.1f: feature %q differs: %v vs %v",
						tc.title, at, fast.FeatureNames()[i], xf[i], xs[i])
				}
			}
			cf, cs := evidenceOf(fast.CPDInput(ex, at)), evidenceOf(slow.CPDInput(ex, at))
			if len(cf.Events) != len(cs.Events) {
				t.Fatalf("%s: CPD event datasets differ: %d vs %d", tc.title, len(cf.Events), len(cs.Events))
			}
			for name, counts := range cf.Events {
				want := cs.Events[name]
				if len(counts) != len(want) {
					t.Fatalf("%s: CPD %s has %d counts, want %d", tc.title, name, len(counts), len(want))
				}
				for i := range counts {
					if counts[i] != want[i] {
						t.Fatalf("%s: CPD %s count %d differs: %v vs %v", tc.title, name, i, counts[i], want[i])
					}
				}
			}
		}
	}
}
