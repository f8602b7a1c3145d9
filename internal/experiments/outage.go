package experiments

import (
	"cmp"
	"encoding/json"
	"slices"

	"scouts/internal/core"
	"scouts/internal/faults"
	"scouts/internal/incident"
)

// OutagePoint is one sample of the outage curve: what routing quality
// survives once DarkDatasets of the consumed monitoring datasets are
// blacked out.
type OutagePoint struct {
	// BlackoutFraction is DarkDatasets / Datasets, 0 → 1.
	BlackoutFraction float64 `json:"blackout_fraction"`
	DarkDatasets     int     `json:"dark_datasets"`
	// Accuracy is the retained accuracy: the fraction of incidents the
	// Scout has answered correctly at this and every smaller blackout —
	// a survival curve, monotonically non-increasing by construction.
	Accuracy float64 `json:"accuracy"`
	// RawAccuracy is the plain correct fraction at this blackout alone
	// (imputation can flip an individual answer either way, so this one
	// may jitter upward between adjacent points).
	RawAccuracy float64 `json:"raw_accuracy"`
	// FallbackRate is the fraction of incidents the degradation policy
	// handed back to legacy routing (VerdictFallback).
	FallbackRate float64 `json:"fallback_rate"`
}

// OutageCurveResult is the Fig. 9-style accuracy-vs-outage sweep in JSON
// form: how gracefully the Scout degrades as monitoring systems disappear,
// from full coverage down to a total blackout.
type OutageCurveResult struct {
	Datasets    int     `json:"datasets"`
	Incidents   int     `json:"incidents"`
	MinCoverage float64 `json:"min_coverage"`
	// BlackoutOrder is the importance-ordered removal sequence; each
	// point's dark set is a prefix, so the sets are nested.
	BlackoutOrder []string      `json:"blackout_order"`
	Points        []OutagePoint `json:"points"`
}

func (r *OutageCurveResult) String() string {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "outage: " + err.Error()
	}
	return string(data)
}

// OutageCurve sweeps a monitoring blackout from 0% to 100% of the
// datasets the Scout consumes and measures what routing quality remains
// at each step. It is the chaos-path companion of Figure 9: where Figure 9
// retrains on masked matrices, this experiment keeps the deployed model
// fixed and serves through the fault injector — featurization imputes the
// dark feature groups with training means and the degradation policy
// (coverage floor minCoverage) falls back to legacy routing once too
// little of the vector is live.
//
// Datasets go dark in order of trained-forest importance (most important
// first, ties by name), and every step's dark set extends the previous
// one, so each point faces strictly less information than the last. The
// headline Accuracy is therefore a survival fraction — incidents still
// answered correctly at every blackout up to this one — and is
// monotonically non-increasing from the clean accuracy at 0% to 0 at
// 100%, where the coverage floor pushes every incident to fallback.
func OutageCurve(lab *Lab, minCoverage float64) (*OutageCurveResult, error) {
	fb := lab.Scout.Builder()
	imp := lab.Scout.Forest().Importance()

	// Rank datasets by the summed importance of the feature group that
	// consumes them (a group's slots all vanish together when its data
	// does), most important first so the curve probes worst-case loss.
	type dsRank struct {
		name string
		imp  float64
	}
	seen := map[string]int{}
	var ranked []dsRank
	for _, g := range fb.Groups() {
		gi := 0.0
		for _, slot := range fb.GroupSlots(g) {
			gi += imp[slot]
		}
		for _, name := range fb.GroupDatasets(g) {
			if i, ok := seen[name]; ok {
				ranked[i].imp += gi
				continue
			}
			seen[name] = len(ranked)
			ranked = append(ranked, dsRank{name: name, imp: gi})
		}
	}
	slices.SortStableFunc(ranked, func(a, b dsRank) int {
		if c := cmp.Compare(b.imp, a.imp); c != 0 {
			return c
		}
		return cmp.Compare(a.name, b.name)
	})
	order := make([]string, len(ranked))
	for i, r := range ranked {
		order[i] = r.name
	}

	// The evaluated population: test incidents that reach a model under
	// full monitoring. Gating is telemetry-independent, so the population
	// is identical at every blackout level.
	var pop []*incident.Incident
	for _, in := range lab.Test {
		ex := fb.Extract(in.Title, in.Body, in.InitialComponents)
		if !ex.Excluded && !ex.Empty {
			pop = append(pop, in)
		}
	}

	snap, err := lab.Scout.SnapshotPack()
	if err != nil {
		return nil, err
	}

	res := &OutageCurveResult{
		Datasets:      len(order),
		Incidents:     len(pop),
		MinCoverage:   minCoverage,
		BlackoutOrder: order,
	}
	alive := make([]bool, len(pop))
	for i := range alive {
		alive[i] = true
	}
	for dark := 0; dark <= len(order); dark++ {
		var sched faults.Schedule
		for _, name := range order[:dark] {
			sched.Blackouts = append(sched.Blackouts, faults.Blackout{
				Dataset: name, Start: 0, End: faults.Forever,
			})
		}
		chaos := faults.NewChaos(lab.Gen.Telemetry(), sched, lab.Params.Seed)
		s, err := core.Restore(snap, lab.Gen.Topology(), chaos)
		if err != nil {
			return nil, err
		}
		s.SetDegradationPolicy(core.DegradationPolicy{MinCoverage: minCoverage})

		preds := s.PredictIncidentBatch(pop)
		correctNow, fallbacks, retained := 0, 0, 0
		for i, p := range preds {
			truth := pop[i].OwnerLabel == Team
			correct := p.Usable() && p.Verdict != core.VerdictExcluded && p.Responsible == truth
			if correct {
				correctNow++
			} else {
				alive[i] = false
			}
			if p.Verdict == core.VerdictFallback {
				fallbacks++
			}
			if alive[i] {
				retained++
			}
		}
		n := float64(len(pop))
		res.Points = append(res.Points, OutagePoint{
			BlackoutFraction: float64(dark) / float64(len(order)),
			DarkDatasets:     dark,
			Accuracy:         float64(retained) / n,
			RawAccuracy:      float64(correctNow) / n,
			FallbackRate:     float64(fallbacks) / n,
		})
	}
	return res, nil
}
