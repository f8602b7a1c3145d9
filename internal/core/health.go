package core

import "fmt"

// DataHealth is the data-quality report attached to a prediction: how
// much of the feature vector had to be imputed because monitoring systems
// were unavailable, which datasets were down, and how stale the freshest
// available answer was. It is the §6 degradation contract made explicit —
// the serving layer forwards it to operators, and the degradation policy
// decides from it when a prediction is not trustworthy enough to route on.
type DataHealth struct {
	// ImputedSlots counts feature-vector cells filled with training means
	// because every dataset of their feature group was unavailable.
	ImputedSlots int
	// TotalSlots is the feature-vector length (0 on paths that never
	// featurize, e.g. CPD+).
	TotalSlots int
	// DatasetsDown lists the unavailable datasets the Scout consumes, in
	// feature-group order.
	DatasetsDown []string
	// DatasetsTotal counts the datasets the Scout consumes.
	DatasetsTotal int
	// MaxStaleness is the largest admitted staleness (model hours) across
	// the datasets, 0 when everything is fresh.
	MaxStaleness float64
}

// ImputedFraction is the fraction of feature slots that carry training
// means instead of live data.
func (h DataHealth) ImputedFraction() float64 {
	if h.TotalSlots == 0 {
		return 0
	}
	return float64(h.ImputedSlots) / float64(h.TotalSlots)
}

// Coverage is the live fraction of the feature vector (1 means every
// feature saw real monitoring data).
func (h DataHealth) Coverage() float64 { return 1 - h.ImputedFraction() }

// DatasetCoverage is the fraction of consumed datasets currently
// available — the coverage notion that applies even on paths that never
// build a feature vector.
func (h DataHealth) DatasetCoverage() float64 {
	if h.DatasetsTotal == 0 {
		return 1
	}
	return 1 - float64(len(h.DatasetsDown))/float64(h.DatasetsTotal)
}

// DegradationPolicy decides when monitoring has rotted too far to trust a
// model answer, in which case the Scout hands the incident back to the
// legacy routing process (VerdictFallback) — the deployed PhyNet Scout's
// behavior during monitoring outages rather than guessing from means.
// The zero value disables every check, preserving pre-policy behavior.
type DegradationPolicy struct {
	// MinCoverage is the floor on both feature coverage and dataset
	// coverage; below it predictions fall back. 0 disables.
	MinCoverage float64
	// MaxStaleness is the ceiling on admitted data staleness (model
	// hours); above it predictions fall back. 0 disables.
	MaxStaleness float64
}

// degradeReason returns a human-readable reason when the policy rejects
// this health report, "" when the report passes.
func (p DegradationPolicy) degradeReason(h DataHealth) string {
	if p.MinCoverage > 0 && h.TotalSlots > 0 && h.Coverage() < p.MinCoverage {
		return fmt.Sprintf("only %.0f%% of features saw live monitoring data (floor %.0f%%)",
			h.Coverage()*100, p.MinCoverage*100)
	}
	if p.MinCoverage > 0 && h.DatasetCoverage() < p.MinCoverage {
		return fmt.Sprintf("only %d of %d monitoring datasets are available (floor %.0f%%)",
			h.DatasetsTotal-len(h.DatasetsDown), h.DatasetsTotal, p.MinCoverage*100)
	}
	if p.MaxStaleness > 0 && h.MaxStaleness > p.MaxStaleness {
		return fmt.Sprintf("monitoring data lags %.1fh behind the incident (ceiling %.1fh)",
			h.MaxStaleness, p.MaxStaleness)
	}
	return ""
}

// degradedPrediction answers with the legacy-routing fallback when the
// policy rejects the health report. ok is true when the prediction should
// be used (i.e. the Scout must NOT answer through a model).
func (s *Scout) degradedPrediction(h DataHealth, ex Extraction) (Prediction, bool) {
	reason := s.degrade.degradeReason(h)
	if reason == "" {
		return Prediction{}, false
	}
	hc := h
	return Prediction{
		Verdict:     VerdictFallback,
		Model:       "none",
		Components:  ex.All(),
		Explanation: "degraded monitoring: " + reason + "; deferring to the legacy routing process",
		Health:      &hc,
	}, true
}

// SetDegradationPolicy installs the degradation policy (safe to call
// before serving traffic; the policy is read on every prediction).
func (s *Scout) SetDegradationPolicy(p DegradationPolicy) { s.degrade = p }

// Degradation returns the active degradation policy.
func (s *Scout) Degradation() DegradationPolicy { return s.degrade }

// sourceHealth assembles the dataset-availability picture without
// featurizing — the health report of the CPD+ and gate paths.
func (s *Scout) sourceHealth(t float64) DataHealth {
	var buf [stackDatasets]bool
	_, h := s.fb.sourceHealth(buf[:0], t)
	return h
}
