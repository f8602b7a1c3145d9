// NLPRouter, the paper's legacy-router baseline, is lab code
// (internal/experiments); its tests run here, over the tokenizer and
// vocabulary it is built from.

package text_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"scouts/internal/experiments"
	"scouts/internal/text"
)

// corpus builds a synthetic ticket corpus with team-specific vocabulary and
// shared boilerplate.
func corpus(n int, rng *rand.Rand) (docs []string, teams []string) {
	vocab := map[string][]string{
		"PhyNet":  {"switch", "packet", "loss", "tor", "link", "bgp"},
		"Storage": {"disk", "virtual", "mount", "blob", "iops"},
		"SLB":     {"vip", "loadbalancer", "probe", "nat", "mapping"},
	}
	teamNames := []string{"PhyNet", "Storage", "SLB"}
	for i := 0; i < n; i++ {
		team := teamNames[rng.Intn(len(teamNames))]
		words := vocab[team]
		doc := "incident reported customers impacted"
		for k := 0; k < 4; k++ {
			doc += " " + words[rng.Intn(len(words))]
		}
		docs = append(docs, doc)
		teams = append(teams, team)
	}
	return docs, teams
}

func TestNLPRouterLearnsVocabulary(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	docs, teams := corpus(600, rng)
	r, err := experiments.TrainNLPRouter(docs, teams, text.VocabOptions{MinDocFreq: 2})
	if err != nil {
		t.Fatal(err)
	}
	testDocs, testTeams := corpus(300, rng)
	correct := 0
	for i := range testDocs {
		top := r.Route(testDocs[i])
		if ranked, _ := r.Rank(testDocs[i]); top != ranked[0].Team {
			t.Fatalf("%q: Route %s, Rank lists %s first", testDocs[i], top, ranked[0].Team)
		}
		if top == testTeams[i] {
			correct++
		}
	}
	if frac := float64(correct) / float64(len(testDocs)); frac < 0.9 {
		t.Fatalf("NLP router accuracy %v too low", frac)
	}
}

func TestNLPRouterRankIsDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	docs, teams := corpus(200, rng)
	r, err := experiments.TrainNLPRouter(docs, teams, text.VocabOptions{MinDocFreq: 1})
	if err != nil {
		t.Fatal(err)
	}
	ranked, _ := r.Rank("switch link loss")
	var sum float64
	for i, ts := range ranked {
		sum += ts.Score
		if i > 0 && ts.Score > ranked[i-1].Score {
			t.Fatal("ranking not sorted")
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("posterior sums to %v", sum)
	}
	if ranked[0].Team != "PhyNet" {
		t.Fatalf("obvious PhyNet text routed to %v", ranked[0].Team)
	}
}

func TestNLPRouterConfidenceBands(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	docs, teams := corpus(600, rng)
	r, err := experiments.TrainNLPRouter(docs, teams, text.VocabOptions{MinDocFreq: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Strongly team-specific text should be confident; vague text should
	// not be High.
	_, strong := r.Rank("switch tor link packet loss bgp switch link")
	if strong == experiments.Low {
		t.Fatalf("strong PhyNet text got %v confidence", strong)
	}
	_, vague := r.Rank("incident reported customers impacted")
	if vague == experiments.High {
		t.Fatal("pure boilerplate should not be High confidence")
	}
}

func TestNLPRouterErrors(t *testing.T) {
	if _, err := experiments.TrainNLPRouter(nil, nil, text.VocabOptions{}); err != experiments.ErrNoTrainingData {
		t.Fatalf("want ErrNoTrainingData, got %v", err)
	}
	if _, err := experiments.TrainNLPRouter([]string{"a"}, []string{"t1", "t2"}, text.VocabOptions{}); err != experiments.ErrNoTrainingData {
		t.Fatalf("mismatched lengths should error, got %v", err)
	}
}

func TestNLPRouterUnknownWordsFallBackToPrior(t *testing.T) {
	docs := []string{"disk failure storage", "disk mount error", "switch loss", "packet drop switch", "switch flap", "switch down"}
	teams := []string{"Storage", "Storage", "PhyNet", "PhyNet", "PhyNet", "PhyNet"}
	r, err := experiments.TrainNLPRouter(docs, teams, text.VocabOptions{MinDocFreq: 1})
	if err != nil {
		t.Fatal(err)
	}
	ranked, _ := r.Rank("zzz qqq completely-novel-text")
	// With no known words, the prior should dominate: PhyNet has 4/6 docs.
	if ranked[0].Team != "PhyNet" {
		t.Fatalf("prior should win on unknown text, got %v", ranked[0].Team)
	}
}

// Teams of equal prior score text none of them has seen alike, to the bit:
// Rank's sort then orders them by name, and Route picks the same one.
func TestNLPRouterRouteBreaksTiesByName(t *testing.T) {
	docs := []string{"disk failure", "disk mount", "vip probe", "vip nat", "switch loss", "switch flap"}
	teams := []string{"Storage", "Storage", "SLB", "SLB", "PhyNet", "PhyNet"}
	r, err := experiments.TrainNLPRouter(docs, teams, text.VocabOptions{MinDocFreq: 1})
	if err != nil {
		t.Fatal(err)
	}
	const novel = "zzz qqq completely-novel-text"
	ranked, _ := r.Rank(novel)
	if ranked[0].Score != ranked[2].Score || ranked[0].Team != "PhyNet" {
		t.Fatalf("Rank(%q) = %v, want three equal scores, PhyNet first", novel, ranked)
	}
	if got := r.Route(novel); got != "PhyNet" {
		t.Fatalf("Route(%q) = %s, want PhyNet", novel, got)
	}
}

func TestConfidenceBandString(t *testing.T) {
	for b, want := range map[experiments.ConfidenceBand]string{experiments.Low: "low", experiments.Medium: "medium", experiments.High: "high"} {
		if got := fmt.Sprint(b); got != want {
			t.Errorf("band %d prints %q want %q", b, got, want)
		}
	}
}
