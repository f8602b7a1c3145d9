// Package evaluate implements the §7 evaluation metrics that compare a
// Scout against the operator's existing incident-routing process: gain-in
// and gain-out (investigation time saved), overhead-in (time wasted on
// false positives, estimated from the baseline's mis-route overhead
// distribution, Figure 6), and error-out (incidents mistakenly routed
// away). All times are fractions of each incident's total investigation
// time, as in the paper.
package evaluate

import (
	"math/rand"

	"scouts/internal/core"
	"scouts/internal/incident"
	"scouts/internal/parallel"
)

// Predictor is anything that can answer for an incident; *core.Scout
// implements it, and the Scout Master simulations use synthetic ones.
// RunWorkers fans predictions out across goroutines, so implementations
// must be safe for concurrent PredictIncident calls (a trained Scout is:
// it is read-only at inference).
type Predictor interface {
	PredictIncident(in *incident.Incident) core.Prediction
}

// Result aggregates the evaluation over a test set. The slices hold one
// fraction-of-investigation-time entry per applicable incident, ready to
// be plotted as CDFs (Figures 7 and 11).
type Result struct {
	// GainIn: team-owned, mis-routed incidents — fraction of time saved
	// by routing them directly to the team.
	GainIn []float64
	// BestGainIn is GainIn under a perfect (100% accurate) gate-keeper.
	BestGainIn []float64
	// GainOut: incidents not owned by the team that the baseline dragged
	// through it — fraction of time saved by routing them away.
	GainOut []float64
	// BestGainOut is GainOut under a perfect gate-keeper.
	BestGainOut []float64
	// OverheadIn: false positives — the team investigates an incident
	// that was never its problem. Ground truth for this counterfactual
	// does not exist, so (like the paper) each false positive draws from
	// the baseline's overhead distribution.
	OverheadIn []float64
	// ErrorOut is the fraction of the team's incidents mistakenly routed
	// away (false negatives).
	ErrorOut float64
	// CorrectOnAlreadyCorrect is the fraction of correctly-routed
	// incidents (no gain opportunity) the Scout also classified correctly
	// (§7.1 reports 98.9%).
	CorrectOnAlreadyCorrect float64
	// Counts.
	Evaluated, Skipped int
}

// OverheadDistribution returns the baseline overhead-in distribution of
// Figure 6: for every incident the baseline mis-routed through the team,
// the fraction of its total investigation time the team consumed.
func OverheadDistribution(ins []*incident.Incident, team string) []float64 {
	// Hop accounting per incident is independent; compute index-addressed
	// in parallel and collect in incident order so the distribution (and
	// everything sampled from it) is identical at any worker count.
	fractions := parallel.Map(0, len(ins), func(i int) float64 {
		in := ins[i]
		if in.OwnerLabel == team || !in.WentThrough(team) {
			return -1
		}
		if tot := in.TotalTime(); tot > 0 {
			return in.TimeIn(team) / tot
		}
		return -1
	})
	var out []float64
	for _, f := range fractions {
		if f >= 0 {
			out = append(out, f)
		}
	}
	return out
}

// RunWorkers evaluates a predictor over a test set for the given team.
// baseline supplies the Figure 6 overhead distribution (normally the
// training trace); rng drives overhead sampling for false positives;
// workers caps the prediction fan-out (0 selects runtime.GOMAXPROCS(0)).
// The expensive phase — one prediction per incident — runs in parallel
// into index-addressed slots; the scoring phase then consumes them
// sequentially in incident order, so every rng draw for false-positive
// overhead sampling happens in the same order as a fully sequential run
// and the Result is bit-identical at any worker count.
func RunWorkers(p Predictor, test []*incident.Incident, team string, baseline []float64, rng *rand.Rand, workers int) Result {
	preds := parallel.Map(workers, len(test), func(i int) core.Prediction {
		return p.PredictIncident(test[i])
	})
	var r Result
	var correctCorrect, totalCorrectRouted int
	var fn, owned int
	for i, in := range test {
		pred := preds[i]
		if !pred.Usable() {
			r.Skipped++
			continue
		}
		r.Evaluated++
		isOurs := in.OwnerLabel == team
		total := in.TotalTime()
		if total <= 0 {
			continue
		}

		if isOurs {
			owned++
			wasted := (total - in.TimeIn(team)) / total
			if wasted > 0 {
				r.BestGainIn = append(r.BestGainIn, wasted)
				if pred.Responsible {
					r.GainIn = append(r.GainIn, wasted)
				} else {
					r.GainIn = append(r.GainIn, 0)
				}
			} else {
				// Already routed correctly: no gain opportunity.
				totalCorrectRouted++
				if pred.Responsible {
					correctCorrect++
				}
			}
			if !pred.Responsible {
				fn++
			}
			continue
		}

		// Not ours.
		if in.WentThrough(team) {
			saved := in.TimeIn(team) / total
			r.BestGainOut = append(r.BestGainOut, saved)
			if !pred.Responsible {
				r.GainOut = append(r.GainOut, saved)
			} else {
				r.GainOut = append(r.GainOut, 0)
			}
		} else {
			totalCorrectRouted++
			if !pred.Responsible {
				correctCorrect++
			}
		}
		if pred.Responsible {
			// False positive: sample the counterfactual overhead from
			// the baseline distribution.
			if len(baseline) > 0 {
				r.OverheadIn = append(r.OverheadIn, baseline[rng.Intn(len(baseline))])
			} else {
				r.OverheadIn = append(r.OverheadIn, 0.1)
			}
		} else {
			r.OverheadIn = append(r.OverheadIn, 0)
		}
	}
	if owned > 0 {
		r.ErrorOut = float64(fn) / float64(owned)
	}
	if totalCorrectRouted > 0 {
		r.CorrectOnAlreadyCorrect = float64(correctCorrect) / float64(totalCorrectRouted)
	}
	return r
}

// WastedAfter returns the investigation time that hops by teams other than
// `team` consume after time t — the time a correct Scout answer at time t
// would save on a team-owned incident (the Figure 12 CRI replay).
func WastedAfter(in *incident.Incident, team string, t float64) float64 {
	var s float64
	for _, h := range in.Hops {
		if h.Team == team {
			continue
		}
		if h.Exit <= t {
			continue
		}
		start := h.Enter
		if start < t {
			start = t
		}
		s += h.Exit - start
	}
	return s
}

// TeamTimeAfter returns the time `team` spends on the incident after time
// t — what routing the incident away at t would save when the team is not
// responsible.
func TeamTimeAfter(in *incident.Incident, team string, t float64) float64 {
	var s float64
	for _, h := range in.Hops {
		if h.Team != team || h.Exit <= t {
			continue
		}
		start := h.Enter
		if start < t {
			start = t
		}
		s += h.Exit - start
	}
	return s
}

// NthTeamExit returns the time when the n-th distinct team finished its
// investigation (n >= 1), or the creation time for n == 0. If fewer than n
// teams investigated it returns the last hop's exit.
func NthTeamExit(in *incident.Incident, n int) float64 {
	if n <= 0 || len(in.Hops) == 0 {
		return in.CreatedAt
	}
	seen := map[string]bool{}
	for _, h := range in.Hops {
		seen[h.Team] = true
		if len(seen) >= n {
			return h.Exit
		}
	}
	return in.Hops[len(in.Hops)-1].Exit
}
