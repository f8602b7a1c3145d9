package master

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"scouts/internal/incident"
	"scouts/internal/metrics"
)

func TestRouteNoClaims(t *testing.T) {
	m := New(nil, 0.8)
	team, reason := m.Route([]Answer{
		{Team: "A", Responsible: false, Confidence: 0.9, Usable: true},
		{Team: "B", Responsible: true, Confidence: 0.6, Usable: true}, // below gate
	}, "legacy")
	if team != "legacy" {
		t.Fatalf("routed to %q", team)
	}
	if !strings.Contains(reason, "legacy") {
		t.Fatalf("reason %q", reason)
	}
}

func TestRouteSingleClaim(t *testing.T) {
	m := New(nil, 0.8)
	team, _ := m.Route([]Answer{
		{Team: "PhyNet", Responsible: true, Confidence: 0.95, Usable: true},
		{Team: "Storage", Responsible: false, Confidence: 0.9, Usable: true},
	}, "legacy")
	if team != "PhyNet" {
		t.Fatalf("routed to %q", team)
	}
}

func TestRouteDependencyWins(t *testing.T) {
	deps := map[string][]string{"Storage": {"PhyNet"}}
	m := New(deps, 0.8)
	team, reason := m.Route([]Answer{
		{Team: "PhyNet", Responsible: true, Confidence: 0.85, Usable: true},
		{Team: "Storage", Responsible: true, Confidence: 0.99, Usable: true},
	}, "legacy")
	if team != "PhyNet" {
		t.Fatalf("dependency rule should pick PhyNet, got %q (%s)", team, reason)
	}
}

func TestRouteConfidenceTieBreak(t *testing.T) {
	m := New(nil, 0.8)
	team, _ := m.Route([]Answer{
		{Team: "A", Responsible: true, Confidence: 0.85, Usable: true},
		{Team: "B", Responsible: true, Confidence: 0.92, Usable: true},
	}, "legacy")
	if team != "B" {
		t.Fatalf("most confident should win, got %q", team)
	}
}

func TestRouteIgnoresUnusable(t *testing.T) {
	m := New(nil, 0.8)
	team, _ := m.Route([]Answer{
		{Team: "A", Responsible: true, Confidence: 0.99, Usable: false},
	}, "legacy")
	if team != "legacy" {
		t.Fatalf("unusable answers must be ignored, got %q", team)
	}
}

// TestRouteDecision pins the one decision Route and SimulateAssignment
// share, one rule per row; each row is routed in every order of its
// answers.
func TestRouteDecision(t *testing.T) {
	underpin := map[string][]string{"Storage": {"PhyNet"}, "SLB": {"PhyNet"}}
	for _, tc := range []struct {
		name     string
		m        *Master
		answers  []Answer
		want     string
		inReason string
	}{
		{"exact tie at Beta 0 goes to the lower team name", SimParams{Alpha: 0.7}.master(), []Answer{
			{Team: "SLB", Responsible: true, Confidence: 0.5, Usable: true},
			{Team: "DB", Responsible: true, Confidence: 0.5, Usable: true},
			{Team: "Storage", Responsible: true, Confidence: 0.5, Usable: true},
			{Team: "PhyNet", Responsible: false, Confidence: 0.8, Usable: true},
		}, "DB", "most confident of 3 claimants"},
		{"a claim below the gate is ignored", New(nil, 0.8), []Answer{
			{Team: "A", Responsible: true, Confidence: 0.79, Usable: true},
			{Team: "B", Responsible: true, Confidence: 0.81, Usable: true},
		}, "B", "only B's Scout claimed it"},
		{"an unusable claim is ignored", New(nil, 0.8), []Answer{
			{Team: "A", Responsible: true, Confidence: 0.99, Usable: false},
			{Team: "B", Responsible: true, Confidence: 0.85, Usable: true},
		}, "B", "only B's Scout claimed it"},
		{"a lone claim wins whatever the dependency edges", New(underpin, 0.8), []Answer{
			{Team: "PhyNet", Responsible: true, Confidence: 0.9, Usable: true},
		}, "PhyNet", "only PhyNet's Scout claimed it"},
		{"the claimant the other two depend on wins", New(underpin, 0.8), []Answer{
			{Team: "Storage", Responsible: true, Confidence: 0.99, Usable: true},
			{Team: "SLB", Responsible: true, Confidence: 0.95, Usable: true},
			{Team: "PhyNet", Responsible: true, Confidence: 0.81, Usable: true},
		}, "PhyNet", "PhyNet underpins the other claimants"},
		{"a claimant only one other depends on does not", New(map[string][]string{"Storage": {"PhyNet"}}, 0.8), []Answer{
			{Team: "Storage", Responsible: true, Confidence: 0.90, Usable: true},
			{Team: "SLB", Responsible: true, Confidence: 0.95, Usable: true},
			{Team: "PhyNet", Responsible: true, Confidence: 0.81, Usable: true},
		}, "SLB", "most confident of 3 claimants"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, order := range permutations(len(tc.answers)) {
				answers := make([]Answer, len(order))
				for i, j := range order {
					answers[i] = tc.answers[j]
				}
				team, reason := tc.m.Route(answers, "legacy")
				if team != tc.want || !strings.Contains(reason, tc.inReason) {
					t.Fatalf("order %v: routed to %q (%s), want %q (%s)", order, team, reason, tc.want, tc.inReason)
				}
			}
		})
	}
}

// permutations returns every order of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for i := 0; i <= len(p); i++ {
			q := append(append(append([]int{}, p[:i]...), n-1), p[i:]...)
			out = append(out, q)
		}
	}
	return out
}

// TestSimulationGateAdmitsEveryDraw: the simulation's Scouts draw a correct
// answer's confidence from 0.8-Beta·u and an incorrect one's from
// 0.5+Beta·u, u in [0, 1). Its Master must let each of them claim, the
// extremes included, at every Beta Figure 16 sweeps and past 0.8.
func TestSimulationGateAdmitsEveryDraw(t *testing.T) {
	for _, beta := range []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.9} {
		m := SimParams{Alpha: 0.7, Beta: beta}.master()
		for _, u := range []float64{0, 0.5, math.Nextafter(1, 0)} {
			for _, conf := range []float64{0.8 - beta*u, 0.5 + beta*u} {
				team, reason := m.Route([]Answer{{Team: "A", Responsible: true, Confidence: conf, Usable: true}}, "legacy")
				if team != "A" {
					t.Fatalf("Beta %.1f: a claim at confidence %v routed to %q (%s)", beta, conf, team, reason)
				}
			}
		}
	}
}

func synthetic(n int, rng *rand.Rand) []*incident.Incident {
	teams := []string{"PhyNet", "Storage", "SLB", "DB"}
	var out []*incident.Incident
	for i := 0; i < n; i++ {
		owner := teams[rng.Intn(len(teams))]
		in := &incident.Incident{ID: "i", OwnerLabel: owner}
		t := 0.0
		hops := 1 + rng.Intn(3)
		for h := 0; h < hops; h++ {
			team := teams[rng.Intn(len(teams))]
			if h == hops-1 {
				team = owner
			}
			d := 1 + rng.Float64()*3
			in.Hops = append(in.Hops, incident.Hop{Team: team, Enter: t, Exit: t + d})
			t += d
		}
		out = append(out, in)
	}
	return out
}

func TestPerfectScoutsSaveEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ins := synthetic(200, rng)
	// All teams enabled with perfect Scouts: every mis-routed incident is
	// fully saved.
	saved := SimulateAssignment(ins, []string{"PhyNet", "Storage", "SLB", "DB"}, SimParams{Alpha: 1}, rng)
	for i, s := range saved {
		in := ins[i]
		want := (in.TotalTime() - in.TimeIn(in.OwnerLabel)) / in.TotalTime()
		if s != want {
			t.Fatalf("incident %d: saved %v want %v", i, s, want)
		}
	}
}

// TestSimulateAssignmentIsAFunctionOfItsSeed: an incident nobody claims
// saves the dwell time of the teams whose Scouts turned it away, and with
// dwell times of 0.1, 0.2 and 0.3 h the order of that sum shows in the last
// bit. Repeated calls from one seed must agree bit for bit, on the sum taken
// in the order the teams are enabled.
func TestSimulateAssignmentIsAFunctionOfItsSeed(t *testing.T) {
	// Only the hops' durations enter the simulation; every hop starts at 0
	// so each duration is exactly the literal.
	in := &incident.Incident{ID: "i", OwnerLabel: "DB", Hops: []incident.Hop{
		{Team: "PhyNet", Exit: 0.1},
		{Team: "Storage", Exit: 0.2},
		{Team: "SLB", Exit: 0.3},
		{Team: "DB", Exit: 1},
	}}
	enabled := []string{"PhyNet", "Storage", "SLB"}
	want := math.Float64bits((in.TimeIn("PhyNet") + in.TimeIn("Storage") + in.TimeIn("SLB")) / in.TotalTime())
	for call := 0; call < 200; call++ {
		got := SimulateAssignment([]*incident.Incident{in}, enabled, SimParams{Alpha: 1}, rand.New(rand.NewSource(1)))
		if bits := math.Float64bits(got[0]); bits != want {
			t.Fatalf("call %d saved %v (%#x), want %v (%#x)", call, got[0], bits, math.Float64frombits(want), want)
		}
	}
}

func TestMoreScoutsMoreGain(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ins := synthetic(400, rng)
	teams := []string{"PhyNet", "Storage", "SLB", "DB"}
	g1 := metrics.Mean(SweepScoutCount(ins, teams, 1, 0, SimParams{Alpha: 1, Seed: 3}))
	g3 := metrics.Mean(SweepScoutCount(ins, teams, 3, 0, SimParams{Alpha: 1, Seed: 3}))
	if g3 <= g1 {
		t.Fatalf("3 Scouts (%v) should beat 1 Scout (%v)", g3, g1)
	}
}

func TestImperfectScoutsLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ins := synthetic(400, rng)
	teams := []string{"PhyNet", "Storage", "SLB", "DB"}
	perfect := metrics.Mean(SweepScoutCount(ins, teams, 2, 0, SimParams{Alpha: 1, Seed: 5}))
	sloppy := metrics.Mean(SweepScoutCount(ins, teams, 2, 0, SimParams{Alpha: 0.7, Beta: 0.3, Seed: 5}))
	if sloppy >= perfect {
		t.Fatalf("imperfect Scouts (%v) should save less than perfect (%v)", sloppy, perfect)
	}
	if sloppy <= 0 {
		t.Fatal("even imperfect Scouts should save some time")
	}
	_ = rng
}

func TestCombinations(t *testing.T) {
	teams := []string{"a", "b", "c", "d"}
	all := Combinations(teams, 2, 0, rand.New(rand.NewSource(6)))
	if len(all) != 6 {
		t.Fatalf("C(4,2) = %d", len(all))
	}
	capped := Combinations(teams, 2, 3, rand.New(rand.NewSource(6)))
	if len(capped) != 3 {
		t.Fatalf("cap ignored: %d", len(capped))
	}
	single := Combinations(teams, 4, 0, rand.New(rand.NewSource(6)))
	if len(single) != 1 {
		t.Fatalf("C(4,4) = %d", len(single))
	}
}

func TestMisroutedFilter(t *testing.T) {
	log := &incident.Log{}
	log.Append(&incident.Incident{ID: "a", OwnerLabel: "X",
		Hops: []incident.Hop{{Team: "X", Enter: 0, Exit: 1}}})
	log.Append(&incident.Incident{ID: "b", OwnerLabel: "X",
		Hops: []incident.Hop{{Team: "Y", Enter: 0, Exit: 1}, {Team: "X", Enter: 1, Exit: 2}}})
	mis := Misrouted(log)
	if len(mis) != 1 || mis[0].ID != "b" {
		t.Fatalf("misrouted = %v", mis)
	}
}
