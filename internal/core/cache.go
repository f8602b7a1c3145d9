package core

import (
	"sync"
	"sync/atomic"

	"scouts/internal/incident"
)

// FeatureCache memoizes per-incident extraction results, feature vectors
// and CPD+ vectors across retraining rounds. The retraining experiments
// (§7.3) rebuild the Scout dozens of times over overlapping windows of the
// same trace; featurization — not model fitting — dominates that cost, and
// it is a pure function of (incident, configuration, data source), so it
// is safe to reuse as long as those stay fixed.
//
// The cache is safe for concurrent use. It is a sync.Map from incident ID
// to *memo because that is the workload sync.Map is built for: keys are
// written once and read many times (96–99 % of the replays' lookups hit,
// ROADMAP "Sized"), and the key set only grows. A FeatureCache must only
// ever be used with one (Config, Topology, DataSource) combination; mixing
// layouts corrupts results. The nil cache is valid and memoizes nothing.
type FeatureCache struct {
	m sync.Map
}

// memo is what is known of one incident's evidence: its extraction and the
// vectors computed from it so far. The §5.3 pipeline (Scout.predict) reads
// an incident through one, so a replay's memoised vectors stand in where a
// live request — whose memo holds only the extraction, lives on the
// request's stack and keeps nothing — computes them. In a cache a memo is
// shared: its fields are set before it is published and read-only
// afterwards, and the CPD+ vector is attached to its slot later, once, by
// whoever needs it first.
type memo struct {
	ex Extraction
	// x is the raw feature vector (no imputation): nil for a gated
	// incident, and on a live request, which featurizes into a pooled
	// vector instead.
	x []float64
	// cpdX is the slot for the CPD+ vector, empty until one is first
	// needed. Behind a pointer so that a request's memo (nil: no slot)
	// is not forced to the heap by the slot's atomic accesses.
	cpdX *atomic.Pointer[[]float64]
}

// NewFeatureCache creates an empty cache.
func NewFeatureCache() *FeatureCache { return &FeatureCache{} }

// Len returns the number of cached incidents.
func (c *FeatureCache) Len() int {
	n := 0
	if c != nil {
		c.m.Range(func(_, _ any) bool { n++; return true })
	}
	return n
}

// Features returns the incident's feature vector at creation time, over
// its full component list — nil when an exclusion rule or the component
// gate stops the incident before a model — from the cache when it holds
// it, computing and keeping it otherwise. The vector is shared with the
// cache: callers must not modify it.
func (c *FeatureCache) Features(fb *FeatureBuilder, in *incident.Incident) []float64 {
	return c.memo(fb, in).x
}

// memo is the one fill behind Features, training and PredictCached:
// extract → featurize unless gated → keep. The first writer wins when two
// workers featurize the same incident concurrently: featurization is
// deterministic, so both candidates are identical, and keeping the
// incumbent preserves any CPD+ vector already attached to it.
func (c *FeatureCache) memo(fb *FeatureBuilder, in *incident.Incident) *memo {
	if c != nil {
		if v, ok := c.m.Load(in.ID); ok {
			return v.(*memo)
		}
	}
	m := &memo{ex: fb.Extract(in.Title, in.Body, in.Components), cpdX: new(atomic.Pointer[[]float64])}
	if !m.ex.Excluded && !m.ex.Empty {
		m.x = fb.Featurize(m.ex, in.CreatedAt)
	}
	if c == nil {
		return m
	}
	v, _ := c.m.LoadOrStore(in.ID, m)
	return v.(*memo)
}

// cpdVector returns the incident's CPD+ vector, running compute — the
// change-point detection, the expensive part of retraining — only the
// first time anyone asks. The first vector attached wins, so concurrent
// computers of the same (deterministic) vector converge on one slice.
func (m *memo) cpdVector(compute func() []float64) []float64 {
	if m.cpdX == nil {
		return compute()
	}
	if p := m.cpdX.Load(); p != nil {
		return *p
	}
	vec := compute()
	if m.cpdX.CompareAndSwap(nil, &vec) {
		return vec
	}
	return *m.cpdX.Load()
}
