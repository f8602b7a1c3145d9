package experiments

import (
	"fmt"
	"strings"

	"scouts/internal/cloudsim"
	"scouts/internal/incident"
	"scouts/internal/master"
	"scouts/internal/metrics"
)

// Figure15Result reproduces the Scout Master deployment sweep: the CDF of
// investigation time saved on mis-routed incidents when 1..6 teams operate
// perfect Scouts, plus the best-possible line (every team has one).
type Figure15Result struct {
	PerCount     []Series // one CDF per Scout count
	BestPossible Series
}

func (f Figure15Result) String() string {
	return renderSeries("Figure 15: investigation time saved vs number of (perfect) Scouts (CDF)",
		append(append([]Series(nil), f.PerCount...), f.BestPossible))
}

// Figure15 sweeps Scout counts 1..6 over all assignments to teams.
func Figure15(lab *Lab, maxScouts, maxAssignments int) Figure15Result {
	if maxScouts <= 0 {
		maxScouts = 6
	}
	if maxAssignments <= 0 {
		maxAssignments = 60
	}
	mis := master.Misrouted(lab.Log)
	var out Figure15Result
	for k := 1; k <= maxScouts; k++ {
		pooled := master.SweepScoutCount(mis, cloudsim.Teams, k, maxAssignments,
			master.SimParams{Alpha: 1, Seed: lab.Params.Seed + 15})
		out.PerCount = append(out.PerCount, cdfSeries(fmt.Sprintf("%d Scouts", k), pooled, 11))
	}
	all := master.SweepScoutCount(mis, cloudsim.Teams, len(cloudsim.Teams), 1,
		master.SimParams{Alpha: 1, Seed: lab.Params.Seed + 15})
	out.BestPossible = cdfSeries("best possible (all teams)", all, 11)
	return out
}

// Figure16Cell is one (alpha, beta) cell of the imperfect-Scout surface.
type Figure16Cell struct {
	Alpha, Beta float64
	Avg, P95    float64
}

// Figure16Result reproduces the imperfect-Scout lower bounds for 1–3
// deployed Scouts.
type Figure16Result struct {
	PerCount map[int][]Figure16Cell
}

func (f Figure16Result) String() string {
	var b strings.Builder
	for k := 1; k <= 3; k++ {
		cells, ok := f.PerCount[k]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "Figure 16: %d Scout(s) — fraction of investigation time saved\n", k)
		fmt.Fprintln(&b, "  alpha  beta    avg     p95")
		for _, c := range cells {
			fmt.Fprintf(&b, "  %.2f   %.2f   %.3f   %.3f\n", c.Alpha, c.Beta, c.Avg, c.P95)
		}
	}
	return b.String()
}

// Figure16 sweeps the accuracy band alpha and confidence spread beta.
func Figure16(lab *Lab, maxAssignments, maxIncidents int) Figure16Result {
	if maxAssignments <= 0 {
		maxAssignments = 12
	}
	mis := master.Misrouted(lab.Log)
	if maxIncidents > 0 && len(mis) > maxIncidents {
		mis = mis[:maxIncidents]
	}
	out := Figure16Result{PerCount: map[int][]Figure16Cell{}}
	for k := 1; k <= 3; k++ {
		for _, alpha := range []float64{0.70, 0.75, 0.80, 0.85, 0.90, 0.95, 1.0} {
			for _, beta := range []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5} {
				pooled := master.SweepScoutCount(mis, cloudsim.Teams, k, maxAssignments,
					master.SimParams{Alpha: alpha, Beta: beta, Seed: lab.Params.Seed + 16})
				sorted := sortedCopy(pooled)
				out.PerCount[k] = append(out.PerCount[k], Figure16Cell{
					Alpha: alpha, Beta: beta,
					Avg: metrics.Mean(pooled),
					P95: metrics.Quantile(sorted, 0.95),
				})
			}
		}
	}
	return out
}

// StorageScoutResult reproduces Appendix B's rule-based Storage Scout
// accuracy (paper: precision 76.15%, recall 99.5%).
type StorageScoutResult struct {
	Row ModelRow
}

func (s StorageScoutResult) String() string {
	return "Appendix B: rule-based Storage Scout\n  " + s.Row.String() + "\n"
}

// StorageScout evaluates a simple rule-based gate-keeper for the Storage
// team: claim every monitor-created incident that mentions a cluster and
// shows storage-suspicious wording, turn away the rest. High recall, much
// lower precision — exactly the profile that motivates graduating to an
// ML Scout.
func StorageScout(lab *Lab) StorageScoutResult {
	var c metrics.Confusion
	for _, in := range lab.Test {
		if in.Source != incident.SourceMonitor {
			continue // the rule system does not trigger on CRIs (App. B)
		}
		// Rule systems over-claim: any wording that could possibly be a
		// storage symptom (disks, mounts, latency — the classic
		// storage-or-network ambiguity) pulls a storage engineer in. That
		// buys near-perfect recall at mediocre precision.
		text := strings.ToLower(incidentText(in))
		claim := strings.Contains(text, "disk") || strings.Contains(text, "storage") ||
			strings.Contains(text, "mount")
		c.Add(claim, in.OwnerLabel == cloudsim.TeamStorage)
	}
	return StorageScoutResult{Row: ModelRow{
		Name: "Storage rule-based Scout", Precision: c.Precision(), Recall: c.Recall(), F1: c.F1(),
	}}
}
