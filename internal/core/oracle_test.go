package core

import (
	"math"
	"slices"
	"testing"

	"scouts/internal/cloudsim"
	"scouts/internal/faults"
	"scouts/internal/incident"
	"scouts/internal/metrics"
	"scouts/internal/ml/cpd"
	"scouts/internal/monitoring"
	"scouts/internal/topology"
)

// Featurization as it read while every window was materialized and copied:
// SeriesWindow per current window, appendNormalized into the merged buffer,
// the copying Summarize (deleted since with its last caller: a clone through
// SummarizeInPlace here), and a contributors slice grown from nil. Kept
// verbatim (minus the pool) as the reference the append path is compared
// against; the functions that collide with production names carry an "old"
// prefix. The one addition is the planned switch: when set, a (dataset,
// component) pair the dataset's descriptor does not cover is skipped before
// it is queried, as the coverage plan does, so a stateful source sees the
// same query sequence on both sides; unset, every pair is queried, as
// production did before the plan.

// oldSkips reports whether the planned old path leaves the pair unqueried.
func (fb *FeatureBuilder) oldSkips(planned bool, d monitoring.Descriptor, comp string) bool {
	if !planned {
		return false
	}
	c, ok := fb.topo.Lookup(comp)
	return !ok || !d.CoversType(c.Type)
}

func (fb *FeatureBuilder) oldContributors(ex Extraction, typ topology.ComponentType) []string {
	switch typ {
	case topology.TypeCluster:
		var out []string
		for _, cl := range ex.ByType[typ] {
			out = append(out, cl)
			out = append(out, fb.topo.DescendantsOfType(cl, topology.TypeSwitch)...)
			out = append(out, fb.topo.DescendantsOfType(cl, topology.TypeServer)...)
		}
		return out
	case topology.TypeDC:
		var out []string
		for _, dc := range ex.ByType[typ] {
			out = append(out, dc)
			out = append(out, fb.topo.DescendantsOfType(dc, topology.TypeCluster)...)
		}
		return out
	default:
		return ex.ByType[typ]
	}
}

func (fb *FeatureBuilder) oldFeaturize(planned bool, ex Extraction, t float64) []float64 {
	x := make([]float64, len(fb.names))
	var merged []float64
	T := fb.cfg.LookbackHours
	slot := 0
	for _, typ := range fb.types {
		comps := fb.oldContributors(ex, typ)
		for _, g := range fb.groups {
			if !g.coversScope(typ) {
				continue
			}
			if g.isEvent {
				count := 0.0
				for _, d := range g.datasets {
					for _, comp := range comps {
						if fb.oldSkips(planned, d, comp) {
							continue
						}
						count += float64(fb.stats.EventCount(d.Name, comp, t-T, t))
					}
				}
				x[slot] = count
				slot++
				continue
			}
			merged = merged[:0]
			for _, d := range g.datasets {
				for _, comp := range comps {
					if fb.oldSkips(planned, d, comp) {
						continue
					}
					cur := fb.source.SeriesWindow(d.Name, comp, t-T, t)
					if len(cur) == 0 {
						continue
					}
					bs, ok := fb.stats.WindowStats(d.Name, comp, t-2*T, t-T)
					merged = appendNormalized(merged, cur, bs, ok)
				}
			}
			metrics.SummarizeInPlace(slices.Clone(merged)).VectorInto(x[slot : slot+len(metrics.SummaryNames)])
			slot += len(metrics.SummaryNames)
		}
		x[slot] = float64(len(ex.ByType[typ]))
		slot++
	}
	return x
}

func appendNormalized(dst, cur []float64, base monitoring.Stats, baseOK bool) []float64 {
	mean, std := base.Mean, base.Std
	if !baseOK {
		mean = metrics.Mean(cur)
		std = 0
	}
	if std < 1e-9 {
		std = 1e-9 + math.Abs(mean)*0.01
		if std < 1e-9 {
			std = 1
		}
	}
	for _, v := range cur {
		dst = append(dst, (v-mean)/std)
	}
	return dst
}

func (fb *FeatureBuilder) oldCPDInput(planned bool, ex Extraction, t float64) cpd.Input {
	in := cpd.Input{
		Broad:  ex.Broad,
		Series: map[string][][]float64{},
		Events: map[string][]float64{},
	}
	T := fb.cfg.LookbackHours
	comps := ex.Devices[:len(ex.Devices):len(ex.Devices)]
	if ex.Broad {
		const maxPerKind = 8
		cap8 := func(xs []string) []string {
			if len(xs) > maxPerKind {
				return xs[:maxPerKind]
			}
			return xs
		}
		for _, cl := range ex.ByType[topology.TypeCluster] {
			comps = append(comps, cl)
			comps = append(comps, cap8(fb.topo.DescendantsOfType(cl, topology.TypeSwitch))...)
			comps = append(comps, cap8(fb.topo.DescendantsOfType(cl, topology.TypeServer))...)
		}
		for _, dc := range ex.ByType[topology.TypeDC] {
			comps = append(comps, cap8(fb.topo.DescendantsOfType(dc, topology.TypeCluster))...)
		}
	} else {
		seen := map[string]bool{}
		for _, d := range ex.Devices {
			if cl := fb.topo.ClusterOf(d); cl != "" && !seen[cl] {
				seen[cl] = true
				comps = append(comps, cl)
			}
		}
	}
	for _, g := range fb.groups {
		for _, d := range g.datasets {
			for _, comp := range comps {
				if fb.oldSkips(planned, d, comp) {
					continue
				}
				if d.Type == monitoring.Event {
					n := fb.stats.EventCount(d.Name, comp, t-T, t)
					if n == 0 {
						c, ok := fb.topo.Lookup(comp)
						if !ok || !d.CoversType(c.Type) {
							continue
						}
					}
					in.Events[d.Name] = append(in.Events[d.Name], float64(n))
					continue
				}
				series := fb.source.SeriesWindow(d.Name, comp, t-2*T, t)
				if len(series) > 0 {
					in.Series[d.Name] = append(in.Series[d.Name], series)
				}
			}
		}
	}
	return in
}

func bitsEqual(a, b []float64) bool {
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

// oracleSources builds the same stack twice — the caller drives one through
// the old path and one through the new, so stateful layers (the breaker's
// gates) see the same call sequence on both sides.
func oracleSources(gen *cloudsim.Generator) map[string]func() monitoring.DataSource {
	tel := gen.Telemetry()
	sched := faults.Schedule{
		Blackouts:   []faults.Blackout{{Dataset: cloudsim.DSTemp, Start: 60, End: 90}},
		Flaps:       []faults.Flap{{Dataset: cloudsim.DSPFC, Start: 0, End: faults.Forever, Period: 7, Duty: 0.6}},
		Stalenesses: []faults.Staleness{{Dataset: cloudsim.DSPingmesh, Start: 100, End: 160, Lag: 5}},
		Corruptions: []faults.Corruption{{Dataset: cloudsim.DSIfCounters, Start: 0, End: faults.Forever, NaNProb: 0.05, SpikeProb: 0.1}},
	}
	chaos := func() *faults.Chaos {
		c := faults.NewChaos(tel, sched, 3)
		c.ClusterOf = gen.Topology().ClusterOf
		return c
	}
	return map[string]func() monitoring.DataSource{
		"simulator": func() monitoring.DataSource { return tel },
		"window-only": func() monitoring.DataSource {
			return windowOnly{tel}
		},
		"breaker": func() monitoring.DataSource {
			return faults.NewBreaker(tel, faults.BreakerParams{})
		},
		"breaker+chaos": func() monitoring.DataSource {
			return faults.NewBreaker(chaos(), faults.BreakerParams{Trip: 4, Cooldown: 3, StaleAfter: 2})
		},
	}
}

// TestFeaturizeMatchesOldPath: over every kind of source stack, the planned
// append path fills the same feature vector and assembles the same CPD+
// input as the materialize-and-copy path, bit for bit, for a replayed
// incident log — through dirty pooled vectors and with the stateful breaker
// on both sides seeing the same query sequence. On the healthy stacks the
// old path is also run unplanned, querying every pair: equality there is
// the proof that the calls the coverage plan skips contributed nothing.
func TestFeaturizeMatchesOldPath(t *testing.T) {
	gen := cloudsim.New(cloudsim.Params{Seed: 9, Days: 12, IncidentsPerDay: 10})
	log := gen.Generate()
	cfg, err := ParseConfig(DefaultPhyNetConfig)
	if err != nil {
		t.Fatal(err)
	}
	for name, mk := range oracleSources(gen) {
		compareWithOldPath(t, name, true, cfg, gen, log, mk)
		if name == "simulator" || name == "breaker" {
			compareWithOldPath(t, name+" (unplanned)", false, cfg, gen, log, mk)
		}
	}
}

func compareWithOldPath(t *testing.T, name string, planned bool, cfg *Config, gen *cloudsim.Generator, log *incident.Log, mk func() monitoring.DataSource) {
	t.Helper()
	oldFB := NewFeatureBuilder(cfg, gen.Topology(), mk())
	newFB := NewFeatureBuilder(cfg, gen.Topology(), mk())
	x := make([]float64, len(newFB.FeatureNames()))
	vectors, series, events := 0, 0, 0
	for _, in := range log.Incidents {
		ex := newFB.Extract(in.Title, in.Body, in.Components)
		if ex.Empty {
			continue
		}
		want := oldFB.oldFeaturize(planned, ex, in.CreatedAt)
		for i := range x {
			x[i] = math.NaN() // a dirty pooled vector
		}
		got := newFB.FeaturizeInto(x, ex, in.CreatedAt)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: incident %s feature %q is %v, old path %v",
					name, in.ID, newFB.FeatureNames()[i], got[i], want[i])
			}
		}
		vectors++

		wantIn, gotIn := oldFB.oldCPDInput(planned, ex, in.CreatedAt), newFB.CPDInput(ex, in.CreatedAt)
		if gotIn.Broad != wantIn.Broad || len(gotIn.Series) != len(wantIn.Series) || len(gotIn.Events) != len(wantIn.Events) {
			t.Fatalf("%s: incident %s CPD input shape differs", name, in.ID)
		}
		for ds, ws := range wantIn.Series {
			gs := gotIn.Series[ds]
			if len(gs) != len(ws) {
				t.Fatalf("%s: incident %s CPD %s has %d series, old path %d", name, in.ID, ds, len(gs), len(ws))
			}
			for i := range ws {
				if !bitsEqual(gs[i], ws[i]) {
					t.Fatalf("%s: incident %s CPD %s series %d differs", name, in.ID, ds, i)
				}
				if cap(gs[i]) != len(gs[i]) {
					t.Fatalf("%s: CPD %s series %d is not clipped: an append would run into its neighbour", name, ds, i)
				}
				series++
			}
		}
		for ds, wc := range wantIn.Events {
			if !bitsEqual(gotIn.Events[ds], wc) {
				t.Fatalf("%s: incident %s CPD %s event counts differ", name, in.ID, ds)
			}
			events += len(wc)
		}
	}
	if vectors < 50 || series < 500 || events < 100 {
		t.Fatalf("%s: compared only %d vectors, %d CPD series and %d CPD event counts", name, vectors, series, events)
	}
}

// TestFeaturizeIntoAllocations pins the steady-state allocation count of
// FeaturizeInto over the breaker-wrapped simulator — the serving stack — at
// zero: no series pull, no summarise and no contributor list allocates once
// the pooled scratch has grown, whether one device contributes or two whole
// clusters do.
func TestFeaturizeIntoAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	gen := cloudsim.New(cloudsim.Params{Seed: 1, Days: 10, IncidentsPerDay: 5})
	gen.Generate() // registers the trace's anomalies
	cfg, err := ParseConfig(DefaultPhyNetConfig)
	if err != nil {
		t.Fatal(err)
	}
	fb := NewFeatureBuilder(cfg, gen.Topology(), faults.NewBreaker(gen.Telemetry(), faults.BreakerParams{}))
	x := make([]float64, len(fb.FeatureNames()))
	for _, tc := range []struct {
		name, body string
		minComps   int
	}{
		{"one device", "tor1.c1.dc1 alarms", 1},
		{"one cluster", "cluster c1.dc1 is degraded", 20},
		{"two clusters", "clusters c1.dc1 and c3.dc2 are degraded", 40},
	} {
		ex := fb.Extract(tc.name, tc.body, nil)
		n := 0
		for _, seg := range fb.contributors(new(featScratch), ex, topology.TypeCluster) {
			n += len(seg.comps)
		}
		if n < tc.minComps {
			t.Fatalf("%s: %d cluster contributors, want at least %d", tc.name, n, tc.minComps)
		}
		for _, at := range []float64{50, 120.5} {
			if allocs := testing.AllocsPerRun(20, func() { fb.FeaturizeInto(x, ex, at) }); allocs != 0 {
				t.Errorf("%s at t=%v: FeaturizeInto allocates %v times per call in steady state", tc.name, at, allocs)
			}
		}
	}
}
