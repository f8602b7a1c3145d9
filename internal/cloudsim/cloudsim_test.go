package cloudsim

import (
	"math"
	"testing"

	"scouts/internal/incident"
	"scouts/internal/metrics"
	"scouts/internal/monitoring"
)

func smallParams(seed int64) Params {
	return Params{Seed: seed, Days: 60, IncidentsPerDay: 10}
}

func TestTelemetryDeterministic(t *testing.T) {
	g := New(smallParams(1))
	tel := g.Telemetry()
	a := tel.SeriesWindow(DSPingmesh, "srv1.c1.dc1", 10, 12)
	b := tel.SeriesWindow(DSPingmesh, "srv1.c1.dc1", 10, 12)
	if len(a) != 20 {
		t.Fatalf("window size %d, want 20", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("telemetry not deterministic")
		}
	}
	// Sub-windows agree with the full window.
	c := tel.SeriesWindow(DSPingmesh, "srv1.c1.dc1", 11, 12)
	if len(c) != 10 || c[0] != a[10] {
		t.Fatalf("sub-window inconsistent: %v vs %v", c[0], a[10])
	}
}

func TestTelemetryCoverage(t *testing.T) {
	g := New(smallParams(2))
	tel := g.Telemetry()
	if tel.SeriesWindow(DSPingmesh, "tor1.c1.dc1", 0, 2) != nil {
		t.Fatal("pingmesh should not cover switches")
	}
	if tel.SeriesWindow(DSCanary, "c1.dc1", 10, 12) == nil {
		t.Fatal("canary should cover clusters")
	}
	if tel.SeriesWindow(DSPingmesh, "vm1.c1.dc1", 10, 12) != nil {
		t.Fatal("PhyNet does not monitor VMs (§5.2)")
	}
	if tel.SeriesWindow("unknown", "srv1.c1.dc1", 10, 12) != nil {
		t.Fatal("unknown dataset should be nil")
	}
	if tel.SeriesWindow(DSSyslog, "tor1.c1.dc1", 10, 12) != nil {
		t.Fatal("event dataset must not serve series")
	}
}

func TestAnomalyShiftsSeries(t *testing.T) {
	g := New(smallParams(3))
	tel := g.Telemetry()
	comp := "srv1.c1.dc1"
	before := tel.SeriesWindow(DSPingmesh, comp, 50, 52)
	shifted := NewTelemetry(g.Topology(), 3, Anomaly{Component: comp, Start: 50, End: 52,
		Effects: []Effect{{Dataset: DSPingmesh, MeanShift: 5}}})
	after := shifted.SeriesWindow(DSPingmesh, comp, 50, 52)
	if metrics.Mean(after)-metrics.Mean(before) < 4.5 {
		t.Fatalf("anomaly shift not visible: %v -> %v", metrics.Mean(before), metrics.Mean(after))
	}
	// Outside the window nothing changes.
	out := shifted.SeriesWindow(DSPingmesh, comp, 54, 56)
	if math.Abs(metrics.Mean(out)-metrics.Mean(before)) > 0.2 {
		t.Fatal("anomaly leaked outside its interval")
	}
}

func TestAnomalyEventBurst(t *testing.T) {
	g := New(smallParams(4))
	tel := g.Telemetry()
	comp := "tor1.c1.dc1"
	quiet := tel.EventsWindow(DSSyslog, comp, 100, 104)
	burst := NewTelemetry(g.Topology(), 4, Anomaly{Component: comp, Start: 100, End: 104,
		Effects: []Effect{{Dataset: DSSyslog, EventRate: 30}}})
	busy := burst.EventsWindow(DSSyslog, comp, 100, 104)
	if len(busy) < len(quiet)+5 {
		t.Fatalf("event burst missing: quiet=%d busy=%d", len(quiet), len(busy))
	}
	for _, e := range busy {
		if e.Time < 100 || e.Time >= 104.2 {
			t.Fatalf("event time %v outside window", e.Time)
		}
	}
}

func TestClusterBaselinesDiffer(t *testing.T) {
	g := New(smallParams(6))
	tel := g.Telemetry()
	a := metrics.Mean(tel.SeriesWindow(DSPingmesh, "srv1.c1.dc1", 10, 20))
	b := metrics.Mean(tel.SeriesWindow(DSPingmesh, "srv1.c3.dc1", 10, 20))
	if math.Abs(a-b) < 0.01 {
		t.Fatalf("clusters should have different baselines: %v vs %v", a, b)
	}
	// Servers within one cluster share the baseline.
	c := metrics.Mean(tel.SeriesWindow(DSPingmesh, "srv2.c1.dc1", 10, 20))
	if math.Abs(a-c) > 0.1 {
		t.Fatalf("same-cluster baseline mismatch: %v vs %v", a, c)
	}
}

func TestGenerateTraceShape(t *testing.T) {
	g := New(smallParams(7))
	log := g.Generate()
	if log.Len() < 300 {
		t.Fatalf("only %d incidents in 60 days", log.Len())
	}
	for _, in := range log.Incidents {
		if err := in.Validate(); err != nil {
			t.Fatal(err)
		}
		if in.TrueOwner == "" || in.OwnerLabel == "" {
			t.Fatalf("incident %s missing owner", in.ID)
		}
		if in.Source == incident.SourceMonitor && in.CreatedBy == "" {
			t.Fatalf("monitor incident %s missing creator", in.ID)
		}
	}
}

func TestTraceCalibration(t *testing.T) {
	g := New(Params{Seed: 8, Days: 120, IncidentsPerDay: 14})
	log := g.Generate()

	// (a) Mis-routed incidents take much longer (paper: 10x on average).
	var single, multi []float64
	for _, in := range log.Incidents {
		if len(in.Teams()) == 1 {
			single = append(single, in.TotalTime())
		} else {
			multi = append(multi, in.TotalTime())
		}
	}
	ratio := metrics.Mean(multi) / metrics.Mean(single)
	if ratio < 4 || ratio > 25 {
		t.Fatalf("multi/single time ratio %v out of plausible band", ratio)
	}

	// (b) A large share of incidents passing through PhyNet are not
	// PhyNet's to resolve (paper: 58% involve wasted time; median 35% of
	// daily incidents are innocent waypoints).
	through := log.Filter(func(in *incident.Incident) bool { return in.WentThrough(TeamPhyNet) })
	waypoint := 0
	for _, in := range through {
		if in.OwnerLabel != TeamPhyNet {
			waypoint++
		}
	}
	frac := float64(waypoint) / float64(len(through))
	if frac < 0.2 || frac > 0.75 {
		t.Fatalf("PhyNet innocent-waypoint fraction %v out of band", frac)
	}

	// (c) PhyNet-owned incidents exist in quantity and are mostly detected
	// by PhyNet's own monitors (Figure 1).
	owned := log.OwnedBy(TeamPhyNet)
	if len(owned) < 100 {
		t.Fatalf("only %d PhyNet incidents", len(owned))
	}
	own := 0
	for _, in := range owned {
		if in.CreatedBy == TeamPhyNet {
			own++
		}
	}
	if f := float64(own) / float64(len(owned)); f < 0.3 || f > 0.85 {
		t.Fatalf("own-monitor detection fraction %v out of band", f)
	}

	// (d) Customer-caused incidents drag PhyNet in (§3.2).
	customer := log.OwnedBy(TeamCustomer)
	if len(customer) == 0 {
		t.Fatal("no customer-caused incidents")
	}
	engaged := 0
	for _, in := range customer {
		if in.WentThrough(TeamPhyNet) {
			engaged++
		}
	}
	if f := float64(engaged) / float64(len(customer)); f < 0.6 {
		t.Fatalf("PhyNet engaged in only %v of customer-caused incidents", f)
	}
}

func TestTraceDeterminism(t *testing.T) {
	a := New(smallParams(9)).Generate()
	b := New(smallParams(9)).Generate()
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Incidents {
		x, y := a.Incidents[i], b.Incidents[i]
		if x.ID != y.ID || x.Title != y.Title || x.CreatedAt != y.CreatedAt ||
			x.OwnerLabel != y.OwnerLabel || len(x.Hops) != len(y.Hops) {
			t.Fatalf("incident %d differs between runs", i)
		}
	}
}

func TestFaultAnomaliesAffectPhyNetTelemetry(t *testing.T) {
	g := New(smallParams(10))
	log := g.Generate()
	tel := g.Telemetry()
	// Find a tor-failure incident that kept its distinctive text (some are
	// rewritten with the generic symptom template) and check its switch
	// shows syslog bursts in the look-back window.
	for _, in := range log.Incidents {
		if in.RootCause != "ToR switch failed after unplanned reboot (config change)" {
			continue
		}
		var tor string
		for _, c := range in.Components {
			if comp, ok := g.Topology().Lookup(c); ok && comp.Type == "switch" {
				tor = c
			}
		}
		if tor == "" {
			continue // generic-symptom variant: no switch mention by design
		}
		evs := tel.EventsWindow(DSSyslog, tor, in.CreatedAt-0.5, in.CreatedAt+0.5)
		if len(evs) == 0 {
			t.Fatalf("no syslog burst for %s at %v", in.ID, in.CreatedAt)
		}
		return
	}
	t.Fatal("no tor-failure incident with a switch mention in trace")
}

func TestCRIMentionDrop(t *testing.T) {
	g := New(Params{Seed: 11, Days: 90, IncidentsPerDay: 14, MentionDropCRI: 0.5})
	log := g.Generate()
	cris := log.Filter(func(in *incident.Incident) bool { return in.Source == incident.SourceCustomer })
	if len(cris) == 0 {
		t.Fatal("no CRIs generated")
	}
	dropped := 0
	for _, in := range cris {
		if len(in.InitialComponents) == 0 {
			dropped++
			// Body must not leak the component names either.
			for _, c := range in.Components {
				if len(c) > 0 && contains(in.Body, c) {
					t.Fatalf("dropped CRI %s still mentions %s", in.ID, c)
				}
			}
		}
	}
	if dropped == 0 {
		t.Fatal("mention dropping never happened at 50% rate")
	}
}

func contains(haystack, needle string) bool {
	return len(needle) > 0 && len(haystack) >= len(needle) && indexOf(haystack, needle) >= 0
}

func indexOf(h, n string) int {
	for i := 0; i+len(n) <= len(h); i++ {
		if h[i:i+len(n)] == n {
			return i
		}
	}
	return -1
}

func TestDataSourceInterface(t *testing.T) {
	var _ monitoring.DataSource = New(smallParams(12)).Telemetry()
	ds := New(smallParams(12)).Telemetry().Datasets()
	if len(ds) != 12 {
		t.Fatalf("want the 12 Table 2 datasets, got %d", len(ds))
	}
}

// TestGenerateRefusesSecondCall: the telemetry a Generator hands out is read
// without a lock once Generate returns, so a second call, which would add
// anomalies to a world that may already be serving, must panic before it
// touches anything.
func TestGenerateRefusesSecondCall(t *testing.T) {
	g := New(Params{Seed: 5, Days: 10, IncidentsPerDay: 4})
	g.Generate()
	count := func() int {
		n := 0
		for _, as := range g.Telemetry().anomalies {
			n += len(as)
		}
		return n
	}
	before := count()
	panicked := func() (p bool) {
		defer func() { p = recover() != nil }()
		g.Generate()
		return false
	}()
	if !panicked {
		t.Fatalf("a second Generate was accepted: the world's anomalies went from %d to %d", before, count())
	}
	if after := count(); after != before {
		t.Fatalf("the refused Generate still moved the world's anomalies from %d to %d", before, after)
	}
}
