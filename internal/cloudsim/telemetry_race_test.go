package cloudsim

import (
	"sync"
	"testing"

	"scouts/internal/monitoring"
	"scouts/internal/topology"
)

// TestTelemetryConcurrentReaders runs readers of the full read surface
// (Datasets, SeriesWindow, WindowStats, EventsWindow, EventCount) against one
// generated world under the race detector. This is the §6 serving reality:
// the world is frozen when Generate returns and every request reads it
// without a lock, so no read path may write shared state.
func TestTelemetryConcurrentReaders(t *testing.T) {
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
