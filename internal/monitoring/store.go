// Package monitoring implements the monitoring-data substrate of §5.1: a
// registry of datasets tagged with their resource locator, component
// associations, data type (TIME_SERIES or EVENT) and optional class tag,
// plus a windowed store the Scout pulls feature inputs from.
//
// Times throughout are normalized model hours (float64), matching the
// paper's normalized investigation times.
package monitoring

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"

	"scouts/internal/topology"
)

// DataType distinguishes the two basic shapes every monitoring dataset is
// reduced to (§5.1): regularly sampled time series and irregular events.
type DataType int

const (
	// TimeSeries data is measured at a regular interval (utilization,
	// temperature, latency, ...).
	TimeSeries DataType = iota
	// Event data occurs irregularly (alerts, syslog errors, reboots, ...).
	Event
)

// String renders the data type like the configuration DSL does.
func (d DataType) String() string {
	if d == Event {
		return "EVENT"
	}
	return "TIME_SERIES"
}

// Descriptor declares one monitoring dataset — the CREATE_MONITORING
// statement of the configuration DSL.
type Descriptor struct {
	// Name identifies the dataset (e.g. "pingmesh").
	Name string
	// Locator is the opaque resource locator operators use to reach the
	// data (a URI in production; informational here).
	Locator string
	// Type is TIME_SERIES or EVENT.
	Type DataType
	// ComponentType is the primary component granularity the data is keyed
	// by.
	ComponentType topology.ComponentType
	// Covers lists every component type the dataset observes when it is
	// broader than ComponentType (e.g. reboot records cover servers and
	// switches). Empty means just ComponentType.
	Covers []topology.ComponentType
	// Class is the optional class tag enabling automatic combination of
	// related datasets (§5.1; the PhyNet Scout tags only two datasets).
	Class string
	// Description is free-form documentation (Table 2's right column).
	Description string
}

// CoversType reports whether the dataset observes components of the type.
func (d Descriptor) CoversType(t topology.ComponentType) bool {
	if len(d.Covers) == 0 {
		return d.ComponentType == t
	}
	for _, c := range d.Covers {
		if c == t {
			return true
		}
	}
	return false
}

// Point is one time-series observation.
type Point struct {
	Time  float64
	Value float64
}

// EventRecord is one event occurrence with its kind (e.g. a syslog type:
// the framework counts events "per type of alert and per component").
type EventRecord struct {
	Time float64
	Kind string
}

// seriesData holds one (dataset, component) time series column-major with
// the aggregate layer maintained on append:
//
//   - prefix/prefixSq are cumulative sums (len n+1, entry i covering
//     vals[:i]) so any window's sum and sum-of-squares are two-subtraction
//     lookups;
//   - minLv/maxLv are incremental sparse tables: level k (stored at index
//     k-1; level 0 is vals itself) has entry j covering vals[j : j+2^k].
//     Entry j of level k is completed exactly when element j+2^k-1 arrives,
//     so each append finishes one entry per level — O(log n) amortized —
//     and entries complete in index order, making the tables append-only.
//
// With the time bounds found by binary search, WindowStats answers
// count/sum/sumsq/min/max for any window in O(log n) total, never touching
// the raw values.
type seriesData struct {
	times  []float64
	vals   []float64
	prefix []float64 // len(vals)+1 cumulative sums; prefix[0] == 0
	prefSq []float64 // len(vals)+1 cumulative sums of squares
	minLv  [][]float64
	maxLv  [][]float64
}

func (sd *seriesData) append(t, v float64) {
	if len(sd.prefix) == 0 {
		sd.prefix = append(sd.prefix, 0)
		sd.prefSq = append(sd.prefSq, 0)
	}
	sd.times = append(sd.times, t)
	sd.vals = append(sd.vals, v)
	sd.prefix = append(sd.prefix, sd.prefix[len(sd.prefix)-1]+v)
	sd.prefSq = append(sd.prefSq, sd.prefSq[len(sd.prefSq)-1]+v*v)
	n := len(sd.vals)
	for k := 1; 1<<k <= n; k++ {
		j := n - 1<<k // the entry this append completes; always len(minLv[k-1])
		half := 1 << (k - 1)
		var lmin, rmin, lmax, rmax float64
		if k == 1 {
			lmin, rmin = sd.vals[j], sd.vals[j+half]
			lmax, rmax = lmin, rmin
		} else {
			lmin, rmin = sd.minLv[k-2][j], sd.minLv[k-2][j+half]
			lmax, rmax = sd.maxLv[k-2][j], sd.maxLv[k-2][j+half]
		}
		if k-1 == len(sd.minLv) {
			sd.minLv = append(sd.minLv, nil)
			sd.maxLv = append(sd.maxLv, nil)
		}
		sd.minLv[k-1] = append(sd.minLv[k-1], min(lmin, rmin))
		sd.maxLv[k-1] = append(sd.maxLv[k-1], max(lmax, rmax))
	}
}

// minMax answers a range-min/max query over vals[lo:hi) (hi > lo) from two
// overlapping power-of-two entries.
func (sd *seriesData) minMax(lo, hi int) (mn, mx float64) {
	k := bits.Len(uint(hi-lo)) - 1
	if k == 0 {
		return sd.vals[lo], sd.vals[lo]
	}
	a, b := lo, hi-1<<k
	return min(sd.minLv[k-1][a], sd.minLv[k-1][b]),
		max(sd.maxLv[k-1][a], sd.maxLv[k-1][b])
}

// window returns the [lo, hi) index bounds of the half-open time window.
func (sd *seriesData) window(from, to float64) (lo, hi int) {
	return sort.SearchFloat64s(sd.times, from), sort.SearchFloat64s(sd.times, to)
}

// eventData holds one (dataset, component) event stream column-major so
// window counting is pure binary search and per-kind counting touches no
// record copies.
type eventData struct {
	times []float64
	kinds []string
}

func (ed *eventData) window(from, to float64) (lo, hi int) {
	return sort.SearchFloat64s(ed.times, from), sort.SearchFloat64s(ed.times, to)
}

// Store holds monitoring data for all registered datasets. It is safe for
// concurrent use; the online serving path reads while generators write.
type Store struct {
	mu        sync.RWMutex
	desc      map[string]Descriptor
	series    map[string]map[string]*seriesData
	events    map[string]map[string]*eventData
	retention float64 // hours of data kept; <= 0 keeps everything
}

// NewStore creates a store that retains the given number of hours of data
// (§8 "Adding new features can be slow": retention had to be extended to
// 9 months before the Scout could train).
func NewStore(retentionHours float64) *Store {
	return &Store{
		desc:      map[string]Descriptor{},
		series:    map[string]map[string]*seriesData{},
		events:    map[string]map[string]*eventData{},
		retention: retentionHours,
	}
}

// Register adds a dataset to the registry.
func (s *Store) Register(d Descriptor) error {
	if d.Name == "" {
		return fmt.Errorf("monitoring: dataset name required")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.desc[d.Name]; dup {
		return fmt.Errorf("monitoring: dataset %q already registered", d.Name)
	}
	s.desc[d.Name] = d
	if d.Type == Event {
		s.events[d.Name] = map[string]*eventData{}
	} else {
		s.series[d.Name] = map[string]*seriesData{}
	}
	return nil
}

// Deprecate removes a dataset and all its data — the Figure 9 experiment
// ("old monitoring systems may be deprecated").
func (s *Store) Deprecate(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.desc, name)
	delete(s.series, name)
	delete(s.events, name)
}

// Datasets lists registered descriptors sorted by name.
func (s *Store) Datasets() []Descriptor {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Descriptor, 0, len(s.desc))
	for _, d := range s.desc {
		out = append(out, d)
	}
	slices.SortFunc(out, func(a, b Descriptor) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// Describe returns the descriptor for a dataset.
func (s *Store) Describe(name string) (Descriptor, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.desc[name]
	return d, ok
}

// AppendPoint records a time-series observation. Appends must be in
// non-decreasing time order per (dataset, component) so window queries can
// binary-search.
func (s *Store) AppendPoint(dataset, component string, p Point) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.series[dataset]
	if !ok {
		return fmt.Errorf("monitoring: %q is not a registered time-series dataset", dataset)
	}
	sd := m[component]
	if sd == nil {
		sd = &seriesData{}
		m[component] = sd
	}
	if n := len(sd.times); n > 0 && sd.times[n-1] > p.Time {
		return fmt.Errorf("monitoring: out-of-order append to %s/%s (%.4f after %.4f)",
			dataset, component, p.Time, sd.times[n-1])
	}
	sd.append(p.Time, p.Value)
	return nil
}

// AppendEvent records an event occurrence (same ordering contract).
func (s *Store) AppendEvent(dataset, component string, e EventRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.events[dataset]
	if !ok {
		return fmt.Errorf("monitoring: %q is not a registered event dataset", dataset)
	}
	ed := m[component]
	if ed == nil {
		ed = &eventData{}
		m[component] = ed
	}
	if n := len(ed.times); n > 0 && ed.times[n-1] > e.Time {
		return fmt.Errorf("monitoring: out-of-order append to %s/%s", dataset, component)
	}
	ed.times = append(ed.times, e.Time)
	ed.kinds = append(ed.kinds, e.Kind)
	return nil
}

// SeriesWindow returns the values of [from, to) for a component, in time
// order. Missing datasets or components yield nil — uneven instrumentation
// is the normal state of the world (§1).
func (s *Store) SeriesWindow(dataset, component string, from, to float64) []float64 {
	return s.AppendSeries(nil, dataset, component, from, to)
}

// AppendSeries implements SeriesAppender: the values of [from, to) are
// copied onto the end of dst under the read lock (one exact-size allocation
// when dst is nil, none when it has the capacity).
//
//scout:hotpath
func (s *Store) AppendSeries(dst []float64, dataset, component string, from, to float64) []float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sd := s.series[dataset][component]
	if sd == nil {
		return dst
	}
	lo, hi := sd.window(from, to)
	if lo >= hi {
		return dst
	}
	return append(dst, sd.vals[lo:hi]...)
}

// WindowStats returns the aggregates of the time-series values in [from,
// to) for a component in O(log n): the time bounds by binary search, sum
// and sum-of-squares as prefix differences, min and max from the sparse
// tables. ok is false for unknown datasets/components and empty windows.
// Mean/Std derive from the moments (see Stats); the query allocates
// nothing.
//
//scout:hotpath
func (s *Store) WindowStats(dataset, component string, from, to float64) (Stats, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sd := s.series[dataset][component]
	if sd == nil {
		return Stats{}, false
	}
	lo, hi := sd.window(from, to)
	if lo >= hi {
		return Stats{}, false
	}
	mn, mx := sd.minMax(lo, hi)
	return momentStats(hi-lo, sd.prefix[hi]-sd.prefix[lo], sd.prefSq[hi]-sd.prefSq[lo], mn, mx), true
}

// EventsWindow returns the events in [from, to) for a component.
func (s *Store) EventsWindow(dataset, component string, from, to float64) []EventRecord {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ed := s.events[dataset][component]
	if ed == nil {
		return nil
	}
	lo, hi := ed.window(from, to)
	if lo >= hi {
		return nil
	}
	out := make([]EventRecord, hi-lo)
	for i := range out {
		out[i] = EventRecord{Time: ed.times[lo+i], Kind: ed.kinds[lo+i]}
	}
	return out
}

// EventCount returns the number of events in [from, to) for a component —
// two binary searches, no record materialization.
//
//scout:hotpath
func (s *Store) EventCount(dataset, component string, from, to float64) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ed := s.events[dataset][component]
	if ed == nil {
		return 0
	}
	lo, hi := ed.window(from, to)
	if lo >= hi {
		return 0
	}
	return hi - lo
}

// EventCounts returns per-kind counts of events in [from, to), counting in
// place under the read lock instead of copying the window's records.
func (s *Store) EventCounts(dataset, component string, from, to float64) map[string]int {
	out := map[string]int{}
	s.mu.RLock()
	defer s.mu.RUnlock()
	ed := s.events[dataset][component]
	if ed == nil {
		return out
	}
	lo, hi := ed.window(from, to)
	for _, k := range ed.kinds[lo:hi] {
		out[k]++
	}
	return out
}

// Store offers the aggregate-query and append-into capabilities.
var (
	_ StatsSource    = (*Store)(nil)
	_ SeriesAppender = (*Store)(nil)
)

// GC discards data older than the retention horizon relative to now. The
// surviving suffix of each series is re-appended into a fresh seriesData so
// the prefix sums and sparse tables are rebuilt consistently.
func (s *Store) GC(now float64) {
	if s.retention <= 0 {
		return
	}
	cut := now - s.retention
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, byComp := range s.series {
		for comp, sd := range byComp {
			lo := sort.SearchFloat64s(sd.times, cut)
			if lo == 0 {
				continue
			}
			kept := &seriesData{}
			for i := lo; i < len(sd.times); i++ {
				kept.append(sd.times[i], sd.vals[i])
			}
			byComp[comp] = kept
		}
	}
	for _, byComp := range s.events {
		for comp, ed := range byComp {
			lo := sort.SearchFloat64s(ed.times, cut)
			if lo == 0 {
				continue
			}
			byComp[comp] = &eventData{
				times: append([]float64(nil), ed.times[lo:]...),
				kinds: append([]string(nil), ed.kinds[lo:]...),
			}
		}
	}
}

// Components returns the components with any data in a dataset, sorted.
func (s *Store) Components(dataset string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []string
	if m, ok := s.series[dataset]; ok {
		for c := range m {
			out = append(out, c)
		}
	}
	if m, ok := s.events[dataset]; ok {
		for c := range m {
			out = append(out, c)
		}
	}
	slices.Sort(out)
	return out
}
