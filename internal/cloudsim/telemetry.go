package cloudsim

import (
	"math"
	"slices"
	"sync"

	"scouts/internal/monitoring"
	"scouts/internal/topology"
)

// The twelve PhyNet monitoring datasets of Table 2. Names are the dataset
// identifiers used throughout the Scout configuration.
const (
	DSPingmesh   = "pingmesh"    // server-pair latency (Pingmesh [34])
	DSLinkDrop   = "linkdrop"    // link-level drop detections ([64])
	DSSwitchDrop = "switchdrop"  // switch-level drop detections ([64])
	DSCanary     = "canary"      // canary-VM reachability per cluster
	DSReboots    = "reboots"     // device reboot records
	DSLinkLoss   = "linkloss"    // per-port loss-rate counters
	DSFCS        = "fcs"         // packet-corruption (FCS) alarms
	DSSyslog     = "syslog"      // SNMP/syslog error messages
	DSPFC        = "pfc"         // priority-flow-control pause counts
	DSIfCounters = "ifcounters"  // interface drop counters
	DSTemp       = "temperature" // ASIC/host temperature
	DSCPU        = "cpu"         // device CPU usage
)

// Tick is the telemetry sampling interval in model hours (6 minutes): a
// two-hour Scout look-back window holds 20 samples per series.
const Tick = 0.1

// datasetSpec describes how one dataset is synthesized.
type datasetSpec struct {
	desc     monitoring.Descriptor
	covers   map[topology.ComponentType]bool
	base     float64 // baseline level for time series
	sigma    float64 // baseline noise for time series
	perClust float64 // magnitude of the per-cluster baseline offset
	bgRate   float64 // background event rate per hour (event datasets)
	kind     string  // default event kind
}

func specs() []datasetSpec {
	sw := map[topology.ComponentType]bool{topology.TypeSwitch: true}
	srv := map[topology.ComponentType]bool{topology.TypeServer: true}
	dev := map[topology.ComponentType]bool{topology.TypeSwitch: true, topology.TypeServer: true}
	cl := map[topology.ComponentType]bool{topology.TypeCluster: true}
	return []datasetSpec{
		{desc: monitoring.Descriptor{Name: DSPingmesh, Locator: "store://phynet/pingmesh", Type: monitoring.TimeSeries, ComponentType: topology.TypeServer, Description: "server-pair latency (ms)"},
			covers: srv, base: 0.5, sigma: 0.05, perClust: 0.2},
		{desc: monitoring.Descriptor{Name: DSLinkDrop, Locator: "store://phynet/linkdrop", Type: monitoring.Event, ComponentType: topology.TypeSwitch, Class: "drops", Description: "link-level packet-drop detections"},
			covers: sw, bgRate: 0.002, kind: "LINK_DROP"},
		{desc: monitoring.Descriptor{Name: DSSwitchDrop, Locator: "store://phynet/switchdrop", Type: monitoring.Event, ComponentType: topology.TypeSwitch, Class: "drops", Description: "switch-level packet-drop detections"},
			covers: sw, bgRate: 0.002, kind: "SWITCH_DROP"},
		{desc: monitoring.Descriptor{Name: DSCanary, Locator: "store://phynet/canary", Type: monitoring.TimeSeries, ComponentType: topology.TypeCluster, Description: "canary-VM reachability success rate"},
			covers: cl, base: 0.999, sigma: 0.0005, perClust: 0.0002},
		{desc: monitoring.Descriptor{Name: DSReboots, Locator: "store://phynet/reboots", Type: monitoring.Event, ComponentType: topology.TypeSwitch, Description: "device reboot records"},
			covers: dev, bgRate: 0.0008, kind: "REBOOT"},
		{desc: monitoring.Descriptor{Name: DSLinkLoss, Locator: "store://phynet/linkloss", Type: monitoring.TimeSeries, ComponentType: topology.TypeSwitch, Description: "per-port loss rate"},
			covers: sw, base: 1e-5, sigma: 4e-6, perClust: 2e-6},
		{desc: monitoring.Descriptor{Name: DSFCS, Locator: "store://phynet/fcs", Type: monitoring.Event, ComponentType: topology.TypeSwitch, Description: "FCS corruption alarms"},
			covers: sw, bgRate: 0.001, kind: "FCS_ERROR"},
		{desc: monitoring.Descriptor{Name: DSSyslog, Locator: "store://phynet/syslog", Type: monitoring.Event, ComponentType: topology.TypeSwitch, Description: "SNMP/syslog error messages"},
			covers: sw, bgRate: 0.02, kind: "SYSLOG_ERR"},
		{desc: monitoring.Descriptor{Name: DSPFC, Locator: "store://phynet/pfc", Type: monitoring.TimeSeries, ComponentType: topology.TypeSwitch, Description: "PFC pause frames per interval"},
			covers: sw, base: 10, sigma: 3, perClust: 2},
		{desc: monitoring.Descriptor{Name: DSIfCounters, Locator: "store://phynet/ifcounters", Type: monitoring.TimeSeries, ComponentType: topology.TypeSwitch, Description: "interface packet drops per interval"},
			covers: sw, base: 2, sigma: 1, perClust: 0.5},
		{desc: monitoring.Descriptor{Name: DSTemp, Locator: "store://phynet/temperature", Type: monitoring.TimeSeries, ComponentType: topology.TypeSwitch, Description: "component temperature (C)"},
			covers: dev, base: 45, sigma: 1.5, perClust: 2},
		{desc: monitoring.Descriptor{Name: DSCPU, Locator: "store://phynet/cpu", Type: monitoring.TimeSeries, ComponentType: topology.TypeServer, Description: "device CPU usage (%)"},
			covers: dev, base: 30, sigma: 5, perClust: 4},
	}
}

// Effect is one dataset-level consequence of a fault on a component.
type Effect struct {
	Dataset   string
	MeanShift float64 // added to time-series values
	StdScale  float64 // scales time-series noise (0 or 1 = unchanged)
	EventRate float64 // extra events per hour
	EventKind string  // kind for injected events (default: dataset default)
}

// Anomaly perturbs one component's telemetry during [Start, End).
type Anomaly struct {
	Component string
	Start     float64
	End       float64
	Effects   []Effect
}

// Telemetry is a deterministic, lazily-synthesized monitoring data source:
// any window of any series can be queried at any time and the same window
// always returns the same values. Fault anomalies registered by the trace
// generator perturb the affected series. Telemetry implements
// monitoring.DataSource.
type Telemetry struct {
	topo  *topology.Topology
	seed  uint64
	specs []datasetSpec
	byDS  map[string]*datasetSpec

	mu        sync.RWMutex
	anomalies map[string][]*Anomaly // keyed by component
	removed   map[string]bool       // deprecated datasets (Figure 9)
}

// NewTelemetry builds the telemetry model for a topology.
func NewTelemetry(topo *topology.Topology, seed int64) *Telemetry {
	t := &Telemetry{
		topo:      topo,
		seed:      uint64(seed),
		specs:     specs(),
		byDS:      map[string]*datasetSpec{},
		anomalies: map[string][]*Anomaly{},
		removed:   map[string]bool{},
	}
	for i := range t.specs {
		s := &t.specs[i]
		for _, ct := range []topology.ComponentType{
			topology.TypeVM, topology.TypeServer, topology.TypeSwitch,
			topology.TypeCluster, topology.TypeDC,
		} {
			if s.covers[ct] {
				s.desc.Covers = append(s.desc.Covers, ct)
			}
		}
		t.byDS[s.desc.Name] = s
	}
	return t
}

// Datasets implements monitoring.DataSource.
func (t *Telemetry) Datasets() []monitoring.Descriptor {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]monitoring.Descriptor, 0, len(t.specs))
	for _, s := range t.specs {
		if !t.removed[s.desc.Name] {
			out = append(out, s.desc)
		}
	}
	return out
}

// Deprecate removes a dataset from the registry, simulating a monitoring
// system being retired (Figure 9). Restore re-adds it.
func (t *Telemetry) Deprecate(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.removed[name] = true
}

// Restore undoes Deprecate.
func (t *Telemetry) Restore(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.removed, name)
}

// AddAnomaly registers a fault's telemetry perturbation.
func (t *Telemetry) AddAnomaly(a Anomaly) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cp := a
	t.anomalies[a.Component] = append(t.anomalies[a.Component], &cp)
}

// relevantAnomalies snapshots the anomalies that touch (dataset, component)
// anywhere inside [from, to), so window synthesis takes the lock once. They
// are appended to buf — callers pass a small stack array, so the usual
// handful of overlapping faults costs no allocation.
func (t *Telemetry) relevantAnomalies(buf []*Anomaly, dataset, component string, from, to float64) []*Anomaly {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, a := range t.anomalies[component] {
		if a.End <= from || a.Start >= to {
			continue
		}
		for _, e := range a.Effects {
			if e.Dataset == dataset {
				buf = append(buf, a)
				break
			}
		}
	}
	return buf
}

// effectsAt sums the effects of the pre-filtered anomalies at time ts.
func effectsAt(dataset string, anomalies []*Anomaly, ts float64) (meanShift, stdScale, eventRate float64, kind string) {
	stdScale = 1
	for _, a := range anomalies {
		if ts < a.Start || ts >= a.End {
			continue
		}
		for _, e := range a.Effects {
			if e.Dataset != dataset {
				continue
			}
			meanShift += e.MeanShift
			if e.StdScale > 0 {
				stdScale *= e.StdScale
			}
			eventRate += e.EventRate
			if e.EventKind != "" {
				kind = e.EventKind
			}
		}
	}
	return meanShift, stdScale, eventRate, kind
}

// covered reports whether the dataset monitors this component.
func (t *Telemetry) covered(spec *datasetSpec, component string) bool {
	c, ok := t.topo.Lookup(component)
	if !ok {
		return false
	}
	return spec.covers[c.Type]
}

// clusterOffset derives the stable per-cluster baseline deviation ("different
// clusters have different baseline latencies", §3.3).
func (t *Telemetry) clusterOffset(spec *datasetSpec, component string) float64 {
	cluster := t.topo.ClusterOf(component)
	if cluster == "" {
		cluster = component
	}
	u := unitAt(t.seed, seriesKey(spec.desc.Name, cluster), 0)
	return (u*2 - 1) * spec.perClust
}

// seriesSpec gates a time-series query: the spec when the dataset exists,
// is live, is a time series, and monitors the component; nil otherwise.
func (t *Telemetry) seriesSpec(dataset, component string) *datasetSpec {
	t.mu.RLock()
	spec, ok := t.byDS[dataset]
	removed := t.removed[dataset]
	t.mu.RUnlock()
	if !ok || removed || spec.desc.Type != monitoring.TimeSeries || !t.covered(spec, component) {
		return nil
	}
	return spec
}

// seriesInto appends the synthesized values at every tick in [from, to) to
// buf and returns it — the one synthesis loop shared by AppendSeries and
// WindowStats, so both produce bit-identical values. buf is grown once, from
// the tick count, when it lacks the room; the strings are hashed once, not
// per tick.
func (t *Telemetry) seriesInto(buf []float64, spec *datasetSpec, dataset, component string, from, to float64) []float64 {
	first := int(math.Ceil(from / Tick))
	if n := int(math.Ceil(to/Tick)) - first; n > 0 {
		// One spare cell: float64(k)*Tick can land on either side of `to`
		// at the last tick.
		buf = slices.Grow(buf, n+1)
	}
	offset := t.clusterOffset(spec, component)
	var overlapping [8]*Anomaly
	anoms := t.relevantAnomalies(overlapping[:0], dataset, component, from, to)
	key := seriesKey(dataset, component)
	for k := first; ; k++ {
		ts := float64(k) * Tick
		if ts >= to {
			break
		}
		meanShift, stdScale := 0.0, 1.0
		if len(anoms) > 0 {
			meanShift, stdScale, _, _ = effectsAt(dataset, anoms, ts)
		}
		noise := normAt(t.seed, key, k)
		v := spec.base + offset + meanShift + noise*spec.sigma*stdScale
		buf = append(buf, v)
	}
	return buf
}

// SeriesWindow implements monitoring.DataSource: values at every tick in
// [from, to).
func (t *Telemetry) SeriesWindow(dataset, component string, from, to float64) []float64 {
	return t.AppendSeries(nil, dataset, component, from, to)
}

// AppendSeries implements monitoring.SeriesAppender: the values at every
// tick in [from, to) are appended to dst, which is returned untouched when
// the dataset is unknown, deprecated, not a time series, or does not monitor
// the component.
func (t *Telemetry) AppendSeries(dst []float64, dataset, component string, from, to float64) []float64 {
	spec := t.seriesSpec(dataset, component)
	if spec == nil {
		return dst
	}
	return t.seriesInto(dst, spec, dataset, component, from, to)
}

// WindowStats implements monitoring.StatsSource. The values are synthesized
// into a small scratch buffer (stack-sized for the Scout's 20-sample
// look-back windows) instead of a returned slice, and the aggregates use
// StatsOf — bit-identical to materializing the window and computing
// metrics.Mean/metrics.StdDev on it.
func (t *Telemetry) WindowStats(dataset, component string, from, to float64) (monitoring.Stats, bool) {
	spec := t.seriesSpec(dataset, component)
	if spec == nil {
		return monitoring.Stats{}, false
	}
	var scratch [64]float64
	vals := t.seriesInto(scratch[:0], spec, dataset, component, from, to)
	if len(vals) == 0 {
		return monitoring.Stats{}, false
	}
	return monitoring.StatsOf(vals), true
}

// EventsWindow implements monitoring.DataSource: background events plus
// anomaly-injected bursts in [from, to).
func (t *Telemetry) EventsWindow(dataset, component string, from, to float64) []monitoring.EventRecord {
	t.mu.RLock()
	spec, ok := t.byDS[dataset]
	removed := t.removed[dataset]
	t.mu.RUnlock()
	if !ok || removed || spec.desc.Type != monitoring.Event || !t.covered(spec, component) {
		return nil
	}
	first := int(math.Ceil(from / Tick))
	var out []monitoring.EventRecord
	var overlapping [8]*Anomaly
	anoms := t.relevantAnomalies(overlapping[:0], dataset, component, from, to)
	key := seriesKey(dataset, component)
	for k := first; ; k++ {
		ts := float64(k) * Tick
		if ts >= to {
			break
		}
		extraRate, kind := 0.0, ""
		if len(anoms) > 0 {
			_, _, extraRate, kind = effectsAt(dataset, anoms, ts)
		}
		if kind == "" {
			kind = spec.kind
		}
		rate := spec.bgRate + extraRate
		p := rate * Tick
		if p > 0 && unitAt(t.seed, key, k) < p {
			out = append(out, monitoring.EventRecord{
				Time: ts + unitAt(t.seed+1, key, k)*Tick,
				Kind: kind,
			})
		}
	}
	return out
}

// EventCount implements monitoring.StatsSource: the number of events in
// [from, to), evaluated with the same per-tick occurrence predicate as
// EventsWindow but without materializing any records.
func (t *Telemetry) EventCount(dataset, component string, from, to float64) int {
	t.mu.RLock()
	spec, ok := t.byDS[dataset]
	removed := t.removed[dataset]
	t.mu.RUnlock()
	if !ok || removed || spec.desc.Type != monitoring.Event || !t.covered(spec, component) {
		return 0
	}
	first := int(math.Ceil(from / Tick))
	var overlapping [8]*Anomaly
	anoms := t.relevantAnomalies(overlapping[:0], dataset, component, from, to)
	key := seriesKey(dataset, component)
	n := 0
	for k := first; ; k++ {
		ts := float64(k) * Tick
		if ts >= to {
			break
		}
		extraRate := 0.0
		if len(anoms) > 0 {
			_, _, extraRate, _ = effectsAt(dataset, anoms, ts)
		}
		p := (spec.bgRate + extraRate) * Tick
		if p > 0 && unitAt(t.seed, key, k) < p {
			n++
		}
	}
	return n
}

// Topology exposes the underlying topology.
func (t *Telemetry) Topology() *topology.Topology { return t.topo }

// Interface conformance checks.
var (
	_ monitoring.DataSource     = (*Telemetry)(nil)
	_ monitoring.StatsSource    = (*Telemetry)(nil)
	_ monitoring.SeriesAppender = (*Telemetry)(nil)
)

// --- deterministic hashing ---------------------------------------------

// fnv1a hashes a string with FNV-1a 64.
func fnv1a(s string) uint64 {
	var h uint64 = 0xcbf29ce484222325
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// mix is splitmix64 finalization.
func mix(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// seriesKey folds the two strings every sample of one series shares into
// the word the per-tick hashes start from, so a window hashes them once
// instead of once per draw.
func seriesKey(dataset, component string) uint64 {
	return fnv1a(dataset)*3 ^ fnv1a(component)*5
}

// unitAt returns the deterministic uniform in [0, 1) of tick k of the series
// with the given key.
func unitAt(seed, key uint64, k int) float64 {
	h := mix(seed ^ key ^ uint64(k)*0x9E3779B97F4A7C15)
	return float64(h>>11) / (1 << 53)
}

// normAt returns the deterministic standard normal of tick k via Box-Muller.
func normAt(seed, key uint64, k int) float64 {
	u1 := unitAt(seed^0xABCD, key, k)
	u2 := unitAt(seed^0x1234, key, k)
	if u1 < 1e-15 {
		u1 = 1e-15
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}
