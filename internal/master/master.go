// Package master implements the Scout Master of Appendix C — the global
// routing process that queries every available Scout in parallel — and the
// trace-driven deployment simulations of Appendix D (Figures 15–16), which
// quantify how much investigation time a handful of (perfect or imperfect)
// Scouts can save.
package master

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

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

// Route applies the strawman: (1) exactly one confident "yes" → that team;
// (2) several — prefer a team the others depend on, else the most
// confident; (3) none → the fallback (legacy) process. The returned reason
// explains the decision, because the master inherits the Scouts'
// explainability requirement.
func (m *Master) Route(answers []Answer, fallback string) (team, reason string) {
	var yes []Answer
	for _, a := range answers {
		if a.Usable && a.Responsible && a.Confidence >= m.MinConfidence {
			yes = append(yes, a)
		}
	}
	switch len(yes) {
	case 0:
		return fallback, "no Scout claimed the incident; using the legacy routing process"
	case 1:
		return yes[0].Team, fmt.Sprintf("only %s's Scout claimed it (confidence %.2f)", yes[0].Team, yes[0].Confidence)
	}
	// Multiple claims: a dependency of the others wins (the paper's rule:
	// "if one team's component depends on the other, send it to the
	// latter").
	for _, a := range yes {
		isDep := true
		for _, b := range yes {
			if a.Team == b.Team {
				continue
			}
			if !m.dependsOn(b.Team, a.Team) {
				isDep = false
				break
			}
		}
		if isDep {
			return a.Team, fmt.Sprintf("%s underpins the other claimants", a.Team)
		}
	}
	slices.SortFunc(yes, func(a, b Answer) int {
		if a.Confidence != b.Confidence {
			return cmp.Compare(b.Confidence, a.Confidence)
		}
		return cmp.Compare(a.Team, b.Team)
	})
	return yes[0].Team, fmt.Sprintf("%s's Scout was the most confident of %d claimants", yes[0].Team, len(yes))
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

// SimulateAssignment replays the mis-routed incidents of a trace assuming
// the teams in `enabled` operate Scouts, and returns the per-incident
// fraction of investigation time saved.
//
// Mechanics (Appendix D): the master queries every Scout when the incident
// is created. If the responsible team's Scout claims it, the incident goes
// straight there and all other teams' time is saved. Otherwise the
// incident follows its historical path, minus the dwell time of innocent
// Scout-enabled teams whose Scouts (correctly) turned it away.
func SimulateAssignment(ins []*incident.Incident, enabled []string, p SimParams, rng *rand.Rand) []float64 {
	enabledSet := map[string]bool{}
	for _, t := range enabled {
		enabledSet[t] = true
	}
	// Per-Scout accuracy for this assignment.
	acc := map[string]float64{}
	for _, t := range enabled {
		if p.perfect() {
			acc[t] = 1
		} else {
			acc[t] = p.Alpha + 0.05*rng.Float64()
		}
	}
	var out []float64
	for _, in := range ins {
		total := in.TotalTime()
		if total <= 0 {
			out = append(out, 0)
			continue
		}
		owner := in.OwnerLabel
		type claim struct {
			team string
			conf float64
		}
		var claims []claim
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
			if answer {
				claims = append(claims, claim{team, conf})
			} else if team != owner {
				saved += in.TimeIn(team)
			}
		}
		routed := ""
		best := -1.0
		for _, c := range claims {
			if c.conf > best {
				best, routed = c.conf, c.team
			}
		}
		switch {
		case routed == owner:
			// Direct route: everything but the owner's own time is saved.
			out = append(out, (total-in.TimeIn(owner))/total)
		case routed != "":
			// Mis-claimed: the incident detours; no saving. (We do not
			// charge extra time, so these results are lower bounds, as in
			// the paper.)
			out = append(out, 0)
		default:
			// Nobody claimed it: historical path minus the innocent
			// teams whose Scouts turned it away.
			out = append(out, saved/total)
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
