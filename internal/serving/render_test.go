package serving

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"scouts/internal/core"
)

// oldRecommendation is the §8 fine print as Sprintf rendered it, kept as the
// reference for the strconv rendering.
func oldRecommendation(team string, p core.Prediction) string {
	if !p.Usable() {
		return "The Scout could not extract components; use the existing routing process."
	}
	verb := "suggests this IS"
	if !p.Responsible {
		verb = "suggests this is NOT"
	}
	return fmt.Sprintf("The %s Scout investigated %d component(s) and %s a %s incident. "+
		"Its confidence is %.2f. We recommend not using this output if confidence is below 0.80. "+
		"Attention: known false negatives occur for transient issues, when an incident is created "+
		"after the problem has already been resolved, and if the incident is too broad in scope.",
		team, len(p.Components), verb, team, p.Confidence)
}

// TestRecommendationMatchesSprintf: byte for byte, over the held-out
// predictions of the serving fixture and over generated ones — confidences
// at the corners (±0, subnormals, ±Inf, NaN), on rounding edges and across
// every exponent; component counts of every width; team names that are
// empty, carry a '%' and outgrow the stack buffer.
func TestRecommendationMatchesSprintf(t *testing.T) {
	_, log, _ := testEnv(t)
	_, _, scout := trainAndServe(t)
	check := func(team string, p core.Prediction) {
		t.Helper()
		if got, want := recommendation(team, &p), oldRecommendation(team, p); got != want {
			t.Fatalf("recommendation(%q, %d components, %v, %v):\n%q\nSprintf:\n%q", team, len(p.Components), p.Responsible, p.Confidence, got, want)
		}
	}
	usable := 0
	for _, in := range log.Incidents[300:] {
		p := scout.PredictIncident(in)
		check(scout.Team(), p)
		if p.Usable() {
			usable++
		}
	}
	if usable < 50 {
		t.Fatalf("only %d usable held-out predictions", usable)
	}
	teams := []string{"PhyNet", "", "100% Storage", strings.Repeat("Team", 200)}
	rng := rand.New(rand.NewSource(7))
	confidence := func(i int) float64 {
		switch i % 5 {
		case 0:
			return math.Float64frombits(rng.Uint64())
		case 1:
			return 0.5 + rng.Float64()/2 // where confidences live
		case 2:
			return (float64(rng.Intn(200001)-100000) + 0.5) / 100 // on a rounding edge of %.2f
		case 3:
			return rng.NormFloat64() * 1e-2
		default:
			return []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
				math.Inf(1), math.Inf(-1), math.NaN(), 0.995, 0.994999999, 0.005, -0.005, 1, 0.5, 1e21, math.MaxFloat64}[rng.Intn(15)]
		}
	}
	for i := 0; i < 120000; i++ {
		p := core.Prediction{
			Verdict:     core.VerdictResponsible,
			Responsible: i%2 == 0,
			Confidence:  confidence(i),
			Components:  make([]string, []int{0, 1, 9, 10, 99, 100, 12345}[rng.Intn(7)]),
		}
		if i%97 == 0 {
			p.Verdict = core.VerdictFallback
		}
		check(teams[i%len(teams)], p)
	}
}
