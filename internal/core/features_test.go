package core

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"scouts/internal/cloudsim"
	"scouts/internal/ml/cpd"
	"scouts/internal/topology"
)

func newBuilder(t *testing.T) (*FeatureBuilder, *cloudsim.Generator) {
	t.Helper()
	gen := cloudsim.New(cloudsim.Params{Seed: 1, Days: 10, IncidentsPerDay: 5})
	cfg, err := ParseConfig(DefaultPhyNetConfig)
	if err != nil {
		t.Fatal(err)
	}
	return NewFeatureBuilder(cfg, gen.Topology(), gen.Telemetry()), gen
}

func TestExtractFromText(t *testing.T) {
	fb, _ := newBuilder(t)
	ex := fb.Extract("Problem in c2.dc1", "VM vm3.c2.dc1 on srv2.c2.dc1 cannot reach tor1.c2.dc1", nil)
	if ex.Empty || ex.Excluded {
		t.Fatalf("extraction failed: %+v", ex)
	}
	if got := ex.OfType(topology.TypeVM); len(got) != 1 || got[0] != "vm3.c2.dc1" {
		t.Fatalf("vm = %v", got)
	}
	if got := ex.OfType(topology.TypeSwitch); len(got) != 1 {
		t.Fatalf("switch = %v", got)
	}
	// Ancestors expanded: cluster + dc present.
	if got := ex.OfType(topology.TypeCluster); len(got) != 1 || got[0] != "c2.dc1" {
		t.Fatalf("cluster = %v", got)
	}
	if got := ex.OfType(topology.TypeDC); len(got) != 1 || got[0] != "dc1" {
		t.Fatalf("dc = %v", got)
	}
}

func TestExtractDependencyExpansion(t *testing.T) {
	fb, gen := newBuilder(t)
	// A VM mention alone must pull in its host server and ToR.
	ex := fb.Extract("t", "trouble with vm1.c1.dc1 only", nil)
	srv := gen.Topology().ServerOfVM("vm1.c1.dc1")
	tor := gen.Topology().ToROfServer(srv)
	found := map[string]bool{}
	for _, c := range ex.All() {
		found[c] = true
	}
	if !found[srv] || !found[tor] {
		t.Fatalf("dependency expansion missing %s/%s: %v", srv, tor, ex.All())
	}
	if ex.Broad {
		t.Fatal("device-level incident should not be broad")
	}
}

func TestExtractBroadVsNarrowVsEmpty(t *testing.T) {
	fb, _ := newBuilder(t)
	broad := fb.Extract("t", "cluster c1.dc1 is degraded", nil)
	if !broad.Broad || broad.Empty {
		t.Fatalf("cluster-only incident should be broad: %+v", broad)
	}
	narrow := fb.Extract("t", "tor1.c1.dc1 rebooted", nil)
	if narrow.Broad || len(narrow.Devices) != 1 {
		t.Fatalf("device incident should be narrow: %+v", narrow)
	}
	empty := fb.Extract("t", "something vague happened", nil)
	if !empty.Empty {
		t.Fatalf("no mentions should be empty: %+v", empty)
	}
}

func TestExtractIgnoresUnknownComponents(t *testing.T) {
	fb, _ := newBuilder(t)
	// Matches the regex but does not exist in the topology.
	ex := fb.Extract("t", "switch tor99.c99.dc9 is down", nil)
	if !ex.Empty {
		t.Fatalf("nonexistent components must be dropped: %v", ex.All())
	}
}

func TestFeatureLayoutStable(t *testing.T) {
	fb1, gen := newBuilder(t)
	cfg, _ := ParseConfig(DefaultPhyNetConfig)
	fb2 := NewFeatureBuilder(cfg, gen.Topology(), gen.Telemetry())
	a, b := fb1.FeatureNames(), fb2.FeatureNames()
	if len(a) != len(b) {
		t.Fatal("layout not stable")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("layout differs at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestClassTagMerging(t *testing.T) {
	fb, _ := newBuilder(t)
	// linkdrop + switchdrop share class "drops": exactly one merged group.
	var dropGroups []string
	for _, g := range fb.Groups() {
		if strings.Contains(g, "drop") {
			dropGroups = append(dropGroups, g)
		}
	}
	if len(dropGroups) != 1 || dropGroups[0] != "drops" {
		t.Fatalf("class merging failed: %v", dropGroups)
	}
	// And the merged group owns feature slots.
	if len(fb.GroupSlots("drops")) == 0 {
		t.Fatal("merged group has no slots")
	}
}

func TestFeaturizeDetectsAnomaly(t *testing.T) {
	fb, gen := newBuilder(t)
	tel := cloudsim.NewTelemetry(gen.Topology(), 1, cloudsim.Anomaly{
		Component: "tor1.c1.dc1", Start: 198, End: 201,
		Effects: []cloudsim.Effect{{Dataset: cloudsim.DSIfCounters, MeanShift: 50}},
	})
	fb = NewFeatureBuilder(fb.cfg, gen.Topology(), tel)
	ex := fb.Extract("t", "problem near tor1.c1.dc1 in c1.dc1", nil)

	healthy := fb.Featurize(ex, 100)
	faulty := fb.Featurize(ex, 200)

	names := fb.FeatureNames()
	idx := -1
	for i, n := range names {
		if n == "switch.ifcounters.max" {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatal("switch.ifcounters.max not in layout")
	}
	if faulty[idx] <= healthy[idx]+1 {
		t.Fatalf("anomaly not visible in features: healthy %v faulty %v", healthy[idx], faulty[idx])
	}
}

func TestFeaturizeComponentCounts(t *testing.T) {
	fb, _ := newBuilder(t)
	ex := fb.Extract("t", "tor1.c1.dc1 and tor2.c1.dc1 look bad", nil)
	x := fb.Featurize(ex, 100)
	names := fb.FeatureNames()
	for i, n := range names {
		if n == "switch.ncomponents" && x[i] != 2 {
			t.Fatalf("switch count = %v, want 2", x[i])
		}
		if n == "cluster.ncomponents" && x[i] != 1 {
			t.Fatalf("cluster count = %v, want 1", x[i])
		}
	}
}

func TestCPDInputShapes(t *testing.T) {
	fb, _ := newBuilder(t)
	narrow := fb.Extract("t", "tor1.c1.dc1 alarms", nil)
	in := evidenceOf(fb.CPDInput(narrow, 100))
	if in.Broad {
		t.Fatal("narrow extraction produced broad input")
	}
	if len(in.Series[cloudsim.DSIfCounters]) == 0 {
		t.Fatal("narrow input missing device series")
	}
	// Doubled window so the change point sits inside the series.
	if n := len(in.Series[cloudsim.DSIfCounters][0]); n != 40 {
		t.Fatalf("series length %d, want 40 (2x lookback at 6-min ticks)", n)
	}

	broad := fb.Extract("t", "cluster c1.dc1 degraded", nil)
	bin := evidenceOf(fb.CPDInput(broad, 100))
	if !bin.Broad {
		t.Fatal("broad extraction should produce broad input")
	}
	if len(bin.Series[cloudsim.DSPingmesh]) == 0 {
		t.Fatal("broad input should sample the cluster's servers")
	}
}

// TestCPDInputIntoReuses: one Input reused over incidents of every shape,
// larger and smaller in turn, holds what a fresh CPDInput assembles for
// each — no pull or point of the incident before survives.
func TestCPDInputIntoReuses(t *testing.T) {
	fb, _ := newBuilder(t)
	var in cpd.Input
	for _, text := range []string{
		"cluster c1.dc1 and cluster c2.dc1 degraded", "tor1.c1.dc1 alarms",
		"datacenter dc1 unreachable", "cluster c1.dc1 degraded",
		"tor1.c1.dc1 and tor2.c2.dc1 alarms", "nothing known here",
	} {
		ex := fb.Extract("t", text, nil)
		want := fb.CPDInput(ex, 100)
		fb.CPDInputInto(&in, ex, 100)
		if in.Broad != want.Broad || !slices.Equal(in.Pulls, want.Pulls) || !slices.Equal(in.Values, want.Values) {
			t.Fatalf("%q: the reused input holds %d pulls and %d points, CPDInput %d and %d",
				text, len(in.Pulls), len(in.Values), len(want.Pulls), len(want.Values))
		}
	}
}

// The feature cache hands one Extraction, slices shared, to concurrent
// callers: CPDInput must not write into spare capacity of ex.Devices. The
// sentinels past len are what a second caller's append would overwrite;
// under -race the concurrent calls also report the write itself.
func TestCPDInputLeavesExtractionAlone(t *testing.T) {
	fb, _ := newBuilder(t)
	ex := fb.Extract("t", "tor1.c1.dc1 and tor2.c2.dc1 alarms", nil)
	if ex.Broad || len(ex.Devices) != 2 {
		t.Fatalf("want a narrow two-device extraction, got %+v", ex)
	}
	devices := make([]string, len(ex.Devices), len(ex.Devices)+4)
	copy(devices, ex.Devices)
	backing := devices[:cap(devices)]
	for i := len(devices); i < len(backing); i++ {
		backing[i] = "sentinel"
	}
	ex.Devices = devices

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				fb.CPDInput(ex, 100)
			}
		}()
	}
	wg.Wait()
	for i := len(devices); i < len(backing); i++ {
		if backing[i] != "sentinel" {
			t.Fatalf("CPDInput wrote %q into the Extraction's backing array at %d", backing[i], i)
		}
	}
}

func TestExcludedComponentDropped(t *testing.T) {
	gen := cloudsim.New(cloudsim.Params{Seed: 2, Days: 10, IncidentsPerDay: 5})
	cfg, err := ParseConfig("TEAM PhyNet;\nlet switch = <\\b(?:tor|agg)\\d+\\.c\\d+\\.dc\\d+\\b>;\nEXCLUDE switch = <agg.*>;")
	if err != nil {
		t.Fatal(err)
	}
	fb := NewFeatureBuilder(cfg, gen.Topology(), gen.Telemetry())
	ex := fb.Extract("t", "agg1.c1.dc1 and tor1.c1.dc1", nil)
	for _, c := range ex.All() {
		if strings.HasPrefix(c, "agg") {
			t.Fatalf("excluded component leaked: %v", ex.All())
		}
	}
	if len(ex.OfType(topology.TypeSwitch)) != 1 {
		t.Fatalf("switches = %v", ex.OfType(topology.TypeSwitch))
	}
}
