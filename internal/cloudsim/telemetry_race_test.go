package cloudsim

import (
	"sync"
	"testing"

	"scouts/internal/monitoring"
	"scouts/internal/topology"
)

// TestTelemetryConcurrentDeprecateRestore pits an AddAnomaly writer against
// the full read surface (Datasets, SeriesWindow, WindowStats, EventsWindow,
// EventCount) under the race detector. This is the §6 serving reality: the
// trace generator registers faults while request featurization reads
// windows, and the RWMutex must cover every path that reads the anomalies —
// the audit for the fault-injection work found the locking sound, and this
// test keeps it so.
func TestTelemetryConcurrentDeprecateRestore(t *testing.T) {
	gen := New(Params{Seed: 11, Days: 10, IncidentsPerDay: 4})
	gen.Generate()
	tel := gen.Telemetry()

	ds := tel.Datasets()
	if len(ds) < 2 {
		t.Fatalf("need at least 2 datasets, have %d", len(ds))
	}
	var series, event string
	for _, d := range ds {
		if d.Type == monitoring.TimeSeries && series == "" {
			series = d.Name
		} else if d.Type == monitoring.Event && event == "" {
			event = d.Name
		}
	}
	comps := gen.Topology().Names(topology.TypeServer)
	if series == "" || len(comps) == 0 {
		t.Fatalf("fixture incomplete: series=%q servers=%d", series, len(comps))
	}

	const readers = 4
	const rounds = 200
	var wg sync.WaitGroup
	// Writer: grow the anomaly list.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			tel.AddAnomaly(Anomaly{
				Component: comps[i%len(comps)],
				Start:     float64(i), End: float64(i) + 1,
				Effects: []Effect{{Dataset: series, MeanShift: 2}},
			})
		}
	}()
	// Readers: the full DataSource/StatsSource surface.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				comp := comps[(r+i)%len(comps)]
				from := float64(i % 100)
				tel.Datasets()
				tel.SeriesWindow(series, comp, from, from+6)
				tel.WindowStats(series, comp, from, from+6)
				if event != "" {
					tel.EventsWindow(event, comp, from, from+6)
					tel.EventCount(event, comp, from, from+6)
				}
			}
		}(r)
	}
	wg.Wait()
}
