// Package monitoring is the monitoring-data contract of §5.1: the registry
// types every dataset is declared with (resource locator, component
// associations, TIME_SERIES or EVENT data type, optional class tag) and the
// read interfaces the Scout pulls feature inputs through. A pull answers
// what the Scout reads and nothing more: a baseline window's mean and
// standard deviation (Stats), a current window's values, an event count.
// The package holds no data of its own; the sources live in
// internal/cloudsim and internal/faults.
//
// Times throughout are normalized model hours (float64), matching the
// paper's normalized investigation times.
package monitoring

import "scouts/internal/topology"

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

// EventRecord is one event occurrence with its kind (e.g. a syslog type:
// the framework counts events "per type of alert and per component").
type EventRecord struct {
	Time float64
	Kind string
}

// DataSource is the read interface the Scout framework pulls monitoring
// data through. The cloud simulator (cloudsim.Telemetry) implements it with
// deterministic lazy synthesis so a nine-month trace needs no storage; the
// fault plane's decorators (faults.Breaker, chaos.Source) wrap any
// implementation.
type DataSource interface {
	// Datasets lists the registered dataset descriptors.
	Datasets() []Descriptor
	// SeriesWindow returns the time-series values in [from, to) for a
	// component, oldest first. Unknown datasets/components return nil.
	SeriesWindow(dataset, component string, from, to float64) []float64
	// EventsWindow returns the events in [from, to) for a component.
	EventsWindow(dataset, component string, from, to float64) []EventRecord
}
