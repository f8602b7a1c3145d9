package monitoring

import "scouts/internal/metrics"

// Stats are the windowed aggregates featurization consumes instead of raw
// sample windows: count, sum, sum of squares, min, max, plus the derived
// mean and (sample) standard deviation.
//
// Mean and Std are carried as fields rather than recomputed by the consumer
// so the producer fixes the arithmetic: every source in the tree
// (cloudsim.Telemetry, faults.Chaos, the adapter below) reduces the raw
// values with StatsOf, whose two-pass mean/std is bit-identical to
// metrics.Mean/metrics.StdDev. Moments derived from running sums would be
// equal only up to floating-point association (see DESIGN.md §7.2).
type Stats struct {
	Count int
	Sum   float64
	SumSq float64
	Min   float64
	Max   float64
	Mean  float64
	Std   float64
}

// StatsOf computes the window aggregates of raw values in one pass plus the
// two-pass mean/std of the metrics package, so downstream arithmetic is
// bit-identical to code that materialized the window and called
// metrics.Mean/metrics.StdDev on it. Empty input returns the zero Stats.
func StatsOf(vals []float64) Stats {
	if len(vals) == 0 {
		return Stats{}
	}
	st := Stats{Count: len(vals), Min: vals[0], Max: vals[0]}
	for _, v := range vals {
		st.Sum += v
		st.SumSq += v * v
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
	}
	st.Mean = metrics.Mean(vals)
	st.Std = metrics.StdDev(vals)
	return st
}

// StatsSource is the aggregate-query capability a DataSource may offer.
// Featurization prefers it over SeriesWindow/EventsWindow: a capable source
// answers without materializing the raw window (cloudsim.Telemetry
// synthesizes into a stack scratch; faults.Breaker and faults.Chaos forward
// to the source they wrap), which removes the window copies from the
// per-incident hot path.
type StatsSource interface {
	// WindowStats returns the aggregates of the time-series values in
	// [from, to) for a component. ok is false when the dataset or component
	// is unknown to the source or the window is empty — mirroring the nil
	// return of SeriesWindow.
	WindowStats(dataset, component string, from, to float64) (Stats, bool)
	// EventCount returns the number of events in [from, to) for a
	// component.
	EventCount(dataset, component string, from, to float64) int
}

// statsAdapter lifts a plain DataSource to a StatsSource by materializing
// windows — the compatibility path for sources that predate the capability.
type statsAdapter struct{ src DataSource }

func (a statsAdapter) WindowStats(dataset, component string, from, to float64) (Stats, bool) {
	vals := a.src.SeriesWindow(dataset, component, from, to)
	if len(vals) == 0 {
		return Stats{}, false
	}
	return StatsOf(vals), true
}

func (a statsAdapter) EventCount(dataset, component string, from, to float64) int {
	return len(a.src.EventsWindow(dataset, component, from, to))
}

// StatsSourceOf returns src itself when it already offers the aggregate
// capability, and a window-materializing adapter otherwise.
func StatsSourceOf(src DataSource) StatsSource {
	if s, ok := src.(StatsSource); ok {
		return s
	}
	return statsAdapter{src: src}
}

// SeriesAppender is the append-into form of SeriesWindow a DataSource may
// offer: the values of [from, to) are appended to dst, so a caller that
// merges many windows (featurization) or pre-sizes an arena (CPD+ input)
// pulls them without one result slice per window.
//
// Buffer ownership: the callee only appends — it never reads, rewrites or
// retains dst[:len(dst)], and never keeps the returned slice. A window
// SeriesWindow would answer nil for (unknown dataset or component, empty
// window, an open breaker) returns dst at its old length.
type SeriesAppender interface {
	AppendSeries(dst []float64, dataset, component string, from, to float64) []float64
}

// seriesAdapter lifts a plain DataSource to a SeriesAppender by
// materializing the window and copying it.
type seriesAdapter struct{ src DataSource }

func (a seriesAdapter) AppendSeries(dst []float64, dataset, component string, from, to float64) []float64 {
	return append(dst, a.src.SeriesWindow(dataset, component, from, to)...)
}

// SeriesAppenderOf returns src itself when it already offers the append-into
// capability, and a window-copying adapter otherwise.
func SeriesAppenderOf(src DataSource) SeriesAppender {
	if s, ok := src.(SeriesAppender); ok {
		return s
	}
	return seriesAdapter{src: src}
}
