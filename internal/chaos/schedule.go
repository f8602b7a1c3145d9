// Package chaos is the lab's deterministic fault-injection plane: a
// seeded, schedule-driven wrapper around any monitoring.DataSource that
// replays the Table 2 failure modes — datasets going dark, lagging, or
// corrupting — as reproducible schedules over model time. The outage-curve
// experiment and the serving, core and breaker tests drive it; no daemon
// links it.
//
// Everything in the package is a pure function of (schedule, seed, query
// time): there are no wall-clock reads and no global randomness, so a
// chaos run replays bit-identically.
package chaos

import "math"

// Forever marks an open-ended schedule window.
var Forever = math.Inf(1)

// Blackout makes a dataset answer empty windows during [Start, End).
// Cluster, when non-empty, scopes the outage to components of that cluster
// (a partial, per-cluster blackout); otherwise the whole dataset is dark
// and health reports it unavailable.
type Blackout struct {
	Dataset string // "" matches every dataset
	Cluster string // "" means the entire dataset
	Start   float64
	End     float64
}

// Staleness freezes a dataset Lag model-hours in the past during
// [Start, End): a window query [from, to) answers the data of
// [from-Lag, to-Lag), exactly what a wedged collection pipeline serves.
type Staleness struct {
	Dataset string
	Start   float64
	End     float64
	Lag     float64
}

// Corruption injects deterministic NaNs and magnitude spikes into a
// dataset's time-series values during [Start, End). Each sample is
// corrupted (or not) by a seeded hash of its absolute tick index, so the
// same window is always corrupted the same way.
type Corruption struct {
	Dataset    string
	Start      float64
	End        float64
	NaNProb    float64 // probability a sample becomes NaN
	SpikeProb  float64 // probability a sample is scaled by SpikeScale
	SpikeScale float64 // spike multiplier (default 10 when zero)
}

// Flap toggles a dataset's availability on a fixed cycle during
// [Start, End): up for Duty*Period hours, then dark for the rest of the
// period. A monitoring system in a crash loop looks exactly like this.
type Flap struct {
	Dataset string
	Start   float64
	End     float64
	Period  float64 // cycle length in model hours
	Duty    float64 // fraction of each period the dataset is up, in (0, 1)
}

// Schedule is the full fault plan a Source executes.
type Schedule struct {
	Blackouts   []Blackout
	Stalenesses []Staleness
	Corruptions []Corruption
	Flaps       []Flap
}

// active reports whether t falls inside [start, end).
func active(start, end, t float64) bool { return t >= start && t < end }

// matches reports whether a schedule entry for pattern applies to dataset.
func matches(pattern, dataset string) bool { return pattern == "" || pattern == dataset }

// blackoutAt reports whether (dataset, cluster) is fully dark at time t.
// cluster == "" asks about the dataset as a whole: only cluster-unscoped
// blackouts count, so health reporting does not mark a dataset globally
// dead for a partial outage.
func (s *Schedule) blackoutAt(dataset, cluster string, t float64) bool {
	for _, b := range s.Blackouts {
		if !matches(b.Dataset, dataset) || !active(b.Start, b.End, t) {
			continue
		}
		if b.Cluster == "" || (cluster != "" && b.Cluster == cluster) {
			return true
		}
	}
	return false
}

// flapDownAt reports whether a flap has the dataset in its dark phase at t.
func (s *Schedule) flapDownAt(dataset string, t float64) bool {
	for _, f := range s.Flaps {
		if !matches(f.Dataset, dataset) || !active(f.Start, f.End, t) || f.Period <= 0 {
			continue
		}
		phase := math.Mod(t-f.Start, f.Period) / f.Period
		if phase >= f.Duty {
			return true
		}
	}
	return false
}

// lagAt returns the staleness lag applied to dataset at time t (the
// largest active lag when schedules overlap), 0 when fresh.
func (s *Schedule) lagAt(dataset string, t float64) float64 {
	lag := 0.0
	for _, st := range s.Stalenesses {
		if matches(st.Dataset, dataset) && active(st.Start, st.End, t) && st.Lag > lag {
			lag = st.Lag
		}
	}
	return lag
}

// corruptionAt returns the active corruption for dataset at t, nil when
// the data is clean.
func (s *Schedule) corruptionAt(dataset string, t float64) *Corruption {
	for i := range s.Corruptions {
		c := &s.Corruptions[i]
		if matches(c.Dataset, dataset) && active(c.Start, c.End, t) {
			return c
		}
	}
	return nil
}
