// Package master implements the Scout Master of Appendix C — the global
// routing process that queries every available Scout in parallel — and the
// trace-driven deployment simulations of Appendix D (Figures 15–16), which
// quantify how much investigation time a handful of (perfect or imperfect)
// Scouts can save.
package master

import (
	"fmt"
	"math/rand"

	"scouts/internal/incident"
)

// Answer is one Scout's reply to the master.
type Answer struct {
	Team        string
	Responsible bool
	Confidence  float64
	Usable      bool // false when the Scout fell back (no components, ...)
}

// Master composes Scout answers with the strawman policy of Appendix C.
type Master struct {
	// deps maps team -> teams it depends on; when several Scouts claim an
	// incident, the dependency (the lower-level team) wins.
	deps map[string][]string
	// MinConfidence gates answers (the deployed recommendation: do not
	// act below 0.8, §8).
	MinConfidence float64
}

// New creates a Master with the given dependency edges.
func New(deps map[string][]string, minConfidence float64) *Master {
	if minConfidence <= 0 {
		minConfidence = 0.8
	}
	return &Master{deps: deps, MinConfidence: minConfidence}
}

// dependsOn reports whether a depends on b.
func (m *Master) dependsOn(a, b string) bool {
	for _, d := range m.deps[a] {
		if d == b {
			return true
		}
	}
	return false
}

// decision is the strawman's verdict over one set of answers.
type decision struct {
	winner Answer // meaningful only when claims > 0
	claims int    // usable "yes" answers at or above the gate
	dep    bool   // the dependency rule chose the winner
}

// claims reports whether a is a confident, usable "yes".
func (m *Master) claims(a Answer) bool {
	return a.Usable && a.Responsible && a.Confidence >= m.MinConfidence
}

// decide applies the strawman of Appendix C: a single claim wins; of
// several, a claimant every other claimant depends on wins (the paper's
// rule: "if one team's component depends on the other, send it to the
// latter"); else the most confident, ties to the lower team name.
func (m *Master) decide(answers []Answer) decision {
	var d decision
	for _, a := range answers {
		if !m.claims(a) {
			continue
		}
		d.claims++
		w := d.winner
		if d.claims == 1 || a.Confidence > w.Confidence || (a.Confidence == w.Confidence && a.Team < w.Team) {
			d.winner = a
		}
	}
	if d.claims < 2 {
		return d
	}
	for _, a := range answers {
		if !m.claims(a) {
			continue
		}
		underpins := true
		for _, b := range answers {
			if m.claims(b) && a.Team != b.Team && !m.dependsOn(b.Team, a.Team) {
				underpins = false
				break
			}
		}
		if underpins {
			d.winner, d.dep = a, true
			break
		}
	}
	return d
}

// Route routes one incident by the strawman (see decide), or to the
// fallback (legacy) process when no Scout claims it. The returned reason
// explains the decision, because the master inherits the Scouts'
// explainability requirement.
func (m *Master) Route(answers []Answer, fallback string) (team, reason string) {
	d := m.decide(answers)
	w := d.winner
	switch {
	case d.claims == 0:
		return fallback, "no Scout claimed the incident; using the legacy routing process"
	case d.claims == 1:
		return w.Team, fmt.Sprintf("only %s's Scout claimed it (confidence %.2f)", w.Team, w.Confidence)
	case d.dep:
		return w.Team, fmt.Sprintf("%s underpins the other claimants", w.Team)
	}
	return w.Team, fmt.Sprintf("%s's Scout was the most confident of %d claimants", w.Team, d.claims)
}

// SimParams configure the Appendix D deployment simulation.
type SimParams struct {
	// Alpha is the lower edge of the per-Scout accuracy band: each Scout
	// draws accuracy P uniformly from (Alpha, Alpha+0.05). Alpha >= 1
	// means perfect Scouts.
	Alpha float64
	// Beta is the confidence-spread parameter: correct answers draw
	// confidence from (0.8-Beta, 0.8), incorrect from (0.5, 0.5+Beta).
	Beta float64
	// Seed drives the randomness.
	Seed int64
}

// perfect reports whether the parameters describe perfect Scouts.
func (p SimParams) perfect() bool { return p.Alpha >= 1 }

// master is the Master the simulation routes through: no dependency edges,
// and a gate at the lowest confidence a Scout can draw, min(0.5, 0.8-Beta),
// so the gate turns no claim away. (New would replace a gate <= 0, which
// Beta >= 0.8 gives, with 0.8.)
func (p SimParams) master() *Master {
	return &Master{MinConfidence: min(0.5, 0.8-p.Beta)}
}

// SimulateAssignment replays the mis-routed incidents of a trace assuming
// the teams in `enabled` operate Scouts, and returns the per-incident
// fraction of investigation time saved.
//
// Mechanics (Appendix D): the master queries every Scout when the incident
// is created and routes by the decision Master.Route makes. If that is the
// responsible team, the incident goes straight there and all other teams'
// time is saved. If nobody claims it, the incident follows its historical
// path, minus the dwell time of innocent Scout-enabled teams whose Scouts
// (correctly) turned it away.
func SimulateAssignment(ins []*incident.Incident, enabled []string, p SimParams, rng *rand.Rand) []float64 {
	// Per-Scout accuracy for this assignment.
	acc := map[string]float64{}
	for _, t := range enabled {
		if p.perfect() {
			acc[t] = 1
		} else {
			acc[t] = p.Alpha + 0.05*rng.Float64()
		}
	}
	m := p.master()
	var out []float64
	var answers []Answer
	for _, in := range ins {
		total := in.TotalTime()
		if total <= 0 {
			out = append(out, 0)
			continue
		}
		owner := in.OwnerLabel
		answers = answers[:0]
		// saved is the dwell time of the innocent teams whose Scouts turned
		// the incident away, summed in enabled order.
		var saved float64
		for _, team := range enabled {
			truth := team == owner
			correct := rng.Float64() < acc[team]
			answer := truth == correct
			conf := 0.8
			if !p.perfect() {
				if correct {
					conf = 0.8 - p.Beta*rng.Float64()
				} else {
					conf = 0.5 + p.Beta*rng.Float64()
				}
			}
			answers = append(answers, Answer{Team: team, Responsible: answer, Confidence: conf, Usable: true})
			if !answer && team != owner {
				saved += in.TimeIn(team)
			}
		}
		d := m.decide(answers)
		switch {
		case d.claims == 0:
			// Nobody claimed it: historical path minus the innocent
			// teams whose Scouts turned it away.
			out = append(out, saved/total)
		case d.winner.Team == owner:
			// Direct route: everything but the owner's own time is saved.
			out = append(out, (total-in.TimeIn(owner))/total)
		default:
			// Mis-claimed: the incident detours; no saving. (We do not
			// charge extra time, so these results are lower bounds, as in
			// the paper.)
			out = append(out, 0)
		}
	}
	return out
}

// Misrouted filters a trace to the mis-routed incidents — the population
// Figures 15 and 16 evaluate on.
func Misrouted(log *incident.Log) []*incident.Incident {
	return log.Filter(func(in *incident.Incident) bool {
		return in.Misrouted()
	})
}

// Combinations enumerates all k-element subsets of teams, up to maxSets
// (uniformly subsampled when there are more; 0 = no cap).
func Combinations(teams []string, k int, maxSets int, rng *rand.Rand) [][]string {
	var all [][]string
	n := len(teams)
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		set := make([]string, k)
		for i, j := range idx {
			set[i] = teams[j]
		}
		all = append(all, set)
		// Advance the combination.
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			break
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
	if maxSets > 0 && len(all) > maxSets {
		rng.Shuffle(len(all), func(a, b int) { all[a], all[b] = all[b], all[a] })
		all = all[:maxSets]
	}
	return all
}

// SweepScoutCount pools SimulateAssignment over (sub)sampled assignments
// of k Scouts to teams — one Figure 15/16 series.
func SweepScoutCount(ins []*incident.Incident, teams []string, k int, maxSets int, p SimParams) []float64 {
	rng := rand.New(rand.NewSource(p.Seed + int64(k)*1000))
	var pooled []float64
	for _, set := range Combinations(teams, k, maxSets, rng) {
		pooled = append(pooled, SimulateAssignment(ins, set, p, rng)...)
	}
	return pooled
}
