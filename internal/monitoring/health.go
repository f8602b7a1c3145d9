package monitoring

// DatasetHealth is one dataset's availability report at a moment of model
// time. It is the unit of the graceful-degradation contract: featurization
// asks "is this dataset trustworthy right now?" before using its windows,
// and the serving health endpoint aggregates the answers for operators.
type DatasetHealth struct {
	Dataset string `json:"dataset"`
	// Available is false while the dataset is known to be dark: a full
	// blackout, a flap's down phase, or an open circuit breaker.
	Available bool `json:"available"`
	// Staleness is how far (in model hours) the dataset's answers lag
	// behind the queried time; 0 means fresh.
	Staleness float64 `json:"staleness_hours,omitempty"`
	// Breaker is the circuit-breaker state guarding the dataset
	// ("closed", "open", "half-open"), or "" when no breaker is installed.
	Breaker string `json:"breaker,omitempty"`
}

// HealthReporter is an optional capability of a DataSource: time-aware
// per-dataset availability and staleness. faults.Breaker and chaos.Source
// implement it; a source that cannot lose data (the plain cloud simulator,
// cloudsim.Telemetry) simply does not, and consumers then fall back to
// registry presence (Datasets()) as the availability signal, which is how
// monitoring-system deprecation has always been detected.
type HealthReporter interface {
	// DatasetHealth reports one dataset's health at model time t. Unknown
	// datasets report Available == false.
	DatasetHealth(dataset string, t float64) DatasetHealth
	// HealthSnapshot reports every registered dataset's health at model
	// time t, in registry order.
	HealthSnapshot(t float64) []DatasetHealth
}

// HealthReporterOf returns src's health capability, or nil when the source
// does not report health (callers then treat every registered dataset as
// available).
func HealthReporterOf(src DataSource) HealthReporter {
	if h, ok := src.(HealthReporter); ok {
		return h
	}
	return nil
}
