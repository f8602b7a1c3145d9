package core

import (
	"testing"

	"scouts/internal/monitoring"
	"scouts/internal/topology"
)

// TestAnswerPathAllocations gives the Scout's own hot functions one row each
// (FeaturizeInto has TestFeaturizeIntoAllocations): the extractors' match
// finder appending into a buffer with room and the window normalisation
// allocate nothing, and the operator-facing explanation allocates the string
// it returns and nothing else.
func TestAnswerPathAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	f := getFixture(t)
	s := f.scout
	switches := newFinder(s.cfg.Extractors[topology.TypeSwitch])
	matches := make([]string, 0, 8)
	const text = "tor1.c1.dc1 flaps; agg2.c1.dc1 and tor3.c2.dc1 report FCS errors"
	window := make([]float64, 20)
	for i := range window {
		window[i] = float64(i)
	}
	var xs [][]float64
	for _, in := range f.test[:40] {
		if ex := s.fb.Extract(in.Title, in.Body, in.InitialComponents); !ex.Empty && !ex.Excluded {
			xs = append(xs, s.fb.Featurize(ex, in.CreatedAt))
		}
	}
	i := 0
	for _, c := range []struct {
		name string
		want float64
		run  func()
	}{
		{"finder.findAll", 0, func() { matches = switches.findAll(matches[:0], text) }},
		{"normalizeInPlace", 0, func() { normalizeInPlace(window, monitoring.Stats{Mean: 3, Std: 2}, true) }},
		{"normalizeInPlace (no baseline)", 0, func() { normalizeInPlace(window, monitoring.Stats{}, false) }},
		{"explainRF", 1, func() { s.explainRF(xs[i%len(xs)], i&1 == 0); i++ }},
	} {
		if got := testing.AllocsPerRun(50, c.run); got != c.want {
			t.Errorf("%s: %v allocations per call, want %v", c.name, got, c.want)
		}
	}
	if len(matches) != 3 {
		t.Errorf("findAll found %q, want three switches", matches)
	}
}
