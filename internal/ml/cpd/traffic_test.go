package cpd

import (
	"slices"
	"sync"
	"testing"

	"scouts/internal/cloudsim"
	"scouts/internal/monitoring"
	"scouts/internal/topology"
)

// simulatedWindows pulls, for the incidents of a 20-day cloudsim world, the
// doubled look-back windows core.CPDInput assembles (this package cannot
// import core): every time-series dataset over the components an incident
// names, their clusters, and up to eight switches and eight servers of each
// named cluster, over [t-2T, t) with T the default two hours — 40 points at
// the 6-minute tick. Of each incident's windows (about 55) it keeps
// perIncident, evenly spaced, so every dataset stays represented.
func simulatedWindows(t *testing.T, incidents, perIncident int) [][]float64 {
	t.Helper()
	const lookback, perKind = 2.0, 8
	g := cloudsim.New(cloudsim.Params{Seed: 7, Days: 20, IncidentsPerDay: 12})
	log := g.Generate()
	if len(log.Incidents) < incidents {
		t.Fatalf("the world has %d incidents, want at least %d", len(log.Incidents), incidents)
	}
	topo, tel := g.Topology(), g.Telemetry()
	var windows [][]float64
	for _, in := range log.Incidents[:incidents] {
		var comps []string
		var pulled [][]float64
		add := func(names ...string) {
			for _, name := range names {
				if name != "" && !slices.Contains(comps, name) {
					comps = append(comps, name)
				}
			}
		}
		for _, name := range in.Components {
			add(name, topo.ClusterOf(name))
			if c, ok := topo.Lookup(name); ok && c.Type == topology.TypeCluster {
				for _, typ := range []topology.ComponentType{topology.TypeSwitch, topology.TypeServer} {
					under := topo.DescendantsOfType(name, typ)
					add(under[:min(perKind, len(under))]...)
				}
			}
		}
		for _, d := range tel.Datasets() {
			if d.Type != monitoring.TimeSeries {
				continue
			}
			for _, comp := range comps {
				// Empty when the dataset does not monitor the component.
				if w := tel.SeriesWindow(d.Name, comp, in.CreatedAt-2*lookback, in.CreatedAt); len(w) > 0 {
					pulled = append(pulled, w)
				}
			}
		}
		keep := min(perIncident, len(pulled))
		for i := 0; i < keep; i++ {
			windows = append(windows, pulled[i*len(pulled)/keep])
		}
	}
	return windows
}

// The generators of kernel_test.go are shapes; these are the traffic.
// Detect must agree with the oracle on the windows training pulls, at
// exactly core.Train's parameters: 29 permutations, the zero seed.
func TestDetectMatchesOracleOnSimulatedWindows(t *testing.T) {
	perIncident := 10
	if testing.Short() {
		perIncident = 2
	}
	p := Params{Permutations: 29}
	changes := 0
	for _, w := range simulatedWindows(t, 200, perIncident) {
		checkDetect(t, w, p)
		changes += len(Detect(w, p))
	}
	if changes == 0 {
		t.Fatal("no window of the world has a change point")
	}
}

// Eight goroutines share the scratch pool and take turns evicting each
// other's seed from the one-entry generator cache; every answer must still
// be the oracle's. `make race` runs this under the detector.
func TestDetectConcurrentMatchesOracle(t *testing.T) {
	windows := simulatedWindows(t, 60, 2)
	params := []Params{{Permutations: 29, Seed: 1}, {Permutations: 29, Seed: 2}}
	type answer struct {
		points []int
		has    bool
	}
	want := make([][2]answer, len(windows))
	for i, w := range windows {
		for j, p := range params {
			want[i][j] = answer{oldDetect(w, p), oldHasChange(w, p)}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range windows {
				// Neighbouring goroutines walk the windows in opposite
				// directions and start on different seeds.
				if g%2 == 1 {
					i = len(windows) - 1 - i
				}
				for j := range params {
					j = (j + g/2) % len(params)
					if got := Detect(windows[i], params[j]); !slices.Equal(got, want[i][j].points) {
						t.Errorf("window %d, seed %d: Detect = %v, oracle %v", i, params[j].Seed, got, want[i][j].points)
					}
					if got := HasChange(windows[i], params[j]); got != want[i][j].has {
						t.Errorf("window %d, seed %d: HasChange = %v, oracle %v", i, params[j].Seed, got, want[i][j].has)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
