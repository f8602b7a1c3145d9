package chaos

import (
	"math"
	"sync"

	"scouts/internal/monitoring"
)

// Source wraps a monitoring.DataSource and executes a fault Schedule
// against it: blackouts and flaps answer empty windows, staleness shifts
// queries into the past, and corruption rewrites series values with
// seeded NaNs and spikes. The wrapper keeps the dataset *registry* intact
// — Datasets() always lists everything the inner source registers — so a
// Scout restored against a chaos Source keeps its trained feature layout;
// availability is reported through the monitoring.HealthReporter
// capability instead, which is what featurization imputes against.
//
// Every decision is a pure function of (schedule, seed, query window), so
// identical queries always see identical faults. Source implements
// monitoring.DataSource, monitoring.StatsSource, monitoring.SeriesAppender
// and monitoring.HealthReporter.
type Source struct {
	inner  monitoring.DataSource
	stats  monitoring.StatsSource
	series monitoring.SeriesAppender
	sched  Schedule
	seed   uint64

	// ClusterOf resolves a component to its cluster for cluster-scoped
	// blackouts (topology.ClusterOf fits). nil disables cluster scoping:
	// only whole-dataset blackouts apply.
	ClusterOf func(component string) string
}

// New builds a chaos wrapper over inner with a fault schedule. The
// seed drives only corruption sampling; two wrappers with the same
// (schedule, seed) are interchangeable.
func New(inner monitoring.DataSource, sched Schedule, seed int64) *Source {
	return &Source{
		inner:  inner,
		stats:  monitoring.StatsSourceOf(inner),
		series: monitoring.SeriesAppenderOf(inner),
		sched:  sched,
		seed:   uint64(seed),
	}
}

// Datasets implements monitoring.DataSource. The registry is passed
// through untouched: an outage hides data, not the dataset's existence.
func (c *Source) Datasets() []monitoring.Descriptor { return c.inner.Datasets() }

// down reports whether the dataset is dark for this component at time t.
func (c *Source) down(dataset, component string, t float64) bool {
	cluster := ""
	if c.ClusterOf != nil && component != "" {
		cluster = c.ClusterOf(component)
	}
	return c.sched.blackoutAt(dataset, cluster, t) || c.sched.flapDownAt(dataset, t)
}

// SeriesWindow implements monitoring.DataSource with the schedule applied:
// dark windows answer nil, stale windows answer the past, corrupted
// windows carry seeded NaNs and spikes.
func (c *Source) SeriesWindow(dataset, component string, from, to float64) []float64 {
	return c.AppendSeries(nil, dataset, component, from, to)
}

// AppendSeries implements monitoring.SeriesAppender with the schedule
// applied. Corruption rewrites only the values this call appended — they
// are copies the inner source handed over, never its own storage.
func (c *Source) AppendSeries(dst []float64, dataset, component string, from, to float64) []float64 {
	if c.down(dataset, component, to) {
		return dst
	}
	lag := c.sched.lagAt(dataset, to)
	n := len(dst)
	dst = c.series.AppendSeries(dst, dataset, component, from-lag, to-lag)
	if cr := c.sched.corruptionAt(dataset, to); cr != nil {
		c.corrupt(dst[n:], cr, dataset, component, from)
	}
	return dst
}

// statsScratch holds the buffers WindowStats corrupts a window in. The
// inner source is reached through an interface, so a stack array handed to
// it would escape; a pooled one is reused instead. 64 samples cover the
// Scout's 20-sample look-back windows, as in cloudsim.Telemetry.WindowStats.
var statsScratch = sync.Pool{New: func() any { return new([64]float64) }}

// WindowStats implements monitoring.StatsSource. Under corruption the
// aggregates are recomputed from the corrupted series so WindowStats and
// SeriesWindow never disagree about the same window; otherwise the inner
// source's aggregate fast path answers (shifted when stale).
func (c *Source) WindowStats(dataset, component string, from, to float64) (monitoring.Stats, bool) {
	if c.down(dataset, component, to) {
		return monitoring.Stats{}, false
	}
	if cr := c.sched.corruptionAt(dataset, to); cr != nil {
		scratch := statsScratch.Get().(*[64]float64)
		defer statsScratch.Put(scratch)
		vals := c.AppendSeries(scratch[:0], dataset, component, from, to)
		if len(vals) == 0 {
			return monitoring.Stats{}, false
		}
		return monitoring.StatsOf(vals), true
	}
	lag := c.sched.lagAt(dataset, to)
	return c.stats.WindowStats(dataset, component, from-lag, to-lag)
}

// EventsWindow implements monitoring.DataSource: dark windows answer nil,
// stale windows answer the past (the old event timestamps are kept — a
// frozen pipeline serves old records, it does not re-stamp them).
func (c *Source) EventsWindow(dataset, component string, from, to float64) []monitoring.EventRecord {
	if c.down(dataset, component, to) {
		return nil
	}
	lag := c.sched.lagAt(dataset, to)
	return c.inner.EventsWindow(dataset, component, from-lag, to-lag)
}

// EventCount implements monitoring.StatsSource.
func (c *Source) EventCount(dataset, component string, from, to float64) int {
	if c.down(dataset, component, to) {
		return 0
	}
	lag := c.sched.lagAt(dataset, to)
	return c.stats.EventCount(dataset, component, from-lag, to-lag)
}

// DatasetHealth implements monitoring.HealthReporter. A cluster-scoped
// blackout does not mark the dataset globally unavailable — the dataset
// still answers for other clusters, and per-component emptiness is the
// accurate signal there.
func (c *Source) DatasetHealth(dataset string, t float64) monitoring.DatasetHealth {
	return monitoring.DatasetHealth{
		Dataset:   dataset,
		Available: !c.sched.blackoutAt(dataset, "", t) && !c.sched.flapDownAt(dataset, t),
		Staleness: c.sched.lagAt(dataset, t),
	}
}

// HealthSnapshot implements monitoring.HealthReporter.
func (c *Source) HealthSnapshot(t float64) []monitoring.DatasetHealth {
	ds := c.inner.Datasets()
	out := make([]monitoring.DatasetHealth, len(ds))
	for i, d := range ds {
		out[i] = c.DatasetHealth(d.Name, t)
	}
	return out
}

// corrupt rewrites vals in place. Each sample's fate hashes its index
// anchored at the window start, so a fixed query window is always corrupted
// identically.
func (c *Source) corrupt(vals []float64, cr *Corruption, dataset, component string, from float64) {
	scale := cr.SpikeScale
	if scale == 0 {
		scale = 10
	}
	anchor := int(math.Round(from * 1e6))
	for i, v := range vals {
		u := hashUnit(c.seed, dataset, component, anchor+i)
		switch {
		case u < cr.NaNProb:
			vals[i] = math.NaN()
		case u < cr.NaNProb+cr.SpikeProb:
			vals[i] = v * scale
		}
	}
}

// Interface conformance checks.
var (
	_ monitoring.DataSource     = (*Source)(nil)
	_ monitoring.StatsSource    = (*Source)(nil)
	_ monitoring.SeriesAppender = (*Source)(nil)
	_ monitoring.HealthReporter = (*Source)(nil)
)

// --- deterministic hashing (the cloudsim construction) ------------------

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

// hashUnit returns a deterministic uniform in [0, 1).
func hashUnit(seed uint64, dataset, component string, k int) float64 {
	h := mix(seed ^ fnv1a(dataset)*3 ^ fnv1a(component)*5 ^ uint64(k)*0x9E3779B97F4A7C15)
	return float64(h>>11) / (1 << 53)
}
