package experiments

import (
	"cmp"
	"errors"
	"math"
	"slices"

	"scouts/internal/incident"
	"scouts/internal/text"
)

// incidentText is the full text a text-based router sees: title and body
// on lines of their own.
func incidentText(in *incident.Incident) string { return in.Title + "\n" + in.Body }

// ConfidenceBand is the categorical confidence the legacy NLP recommender
// attaches to its ranked list (§7: "along with categorical — high, medium,
// and low — confidence scores").
type ConfidenceBand int

const (
	// Low confidence: the top team barely beats the runner-up.
	Low ConfidenceBand = iota
	// Medium confidence.
	Medium
	// High confidence: the posterior mass concentrates on one team.
	High
)

// String renders the band.
func (b ConfidenceBand) String() string {
	switch b {
	case High:
		return "high"
	case Medium:
		return "medium"
	default:
		return "low"
	}
}

// TeamScore is one entry of the recommender's ranked output.
type TeamScore struct {
	Team  string
	Score float64 // posterior probability
}

// NLPRouter is the legacy multi-class incident router, the paper's
// baseline (§7: high precision, low recall; it sees only the incident
// text): a multinomial naive Bayes classifier over incident text. It reproduces the baseline's
// behaviour profile: decent precision on clearly-worded incidents, poor
// recall when the text describes symptoms rather than causes.
type NLPRouter struct {
	vocab    *text.Vocabulary
	teams    []string
	teamIdx  map[string]int
	logPrior []float64
	logProb  [][]float64 // team x word: log P(word | team) with Laplace smoothing
}

// ErrNoTrainingData is returned when TrainNLPRouter receives no documents.
var ErrNoTrainingData = errors.New("experiments: no training documents")

// TrainNLPRouter fits the multinomial NB router on (document, team) pairs.
func TrainNLPRouter(docs []string, teams []string, opt text.VocabOptions) (*NLPRouter, error) {
	if len(docs) == 0 || len(docs) != len(teams) {
		return nil, ErrNoTrainingData
	}
	tokenized := make([][]string, len(docs))
	for i, d := range docs {
		tokenized[i] = text.AppendTokens(nil, d)
	}
	vocab := text.BuildVocabulary(tokenized, opt)
	r := &NLPRouter{vocab: vocab, teamIdx: map[string]int{}}
	for _, t := range teams {
		if _, ok := r.teamIdx[t]; !ok {
			r.teamIdx[t] = len(r.teams)
			r.teams = append(r.teams, t)
		}
	}
	nTeams := len(r.teams)
	wordCounts := make([][]float64, nTeams)
	teamDocs := make([]float64, nTeams)
	totals := make([]float64, nTeams)
	for i := range wordCounts {
		wordCounts[i] = make([]float64, vocab.Size())
	}
	for i, doc := range tokenized {
		t := r.teamIdx[teams[i]]
		teamDocs[t]++
		for _, w := range doc {
			if j, ok := vocab.Index[w]; ok {
				wordCounts[t][j]++
				totals[t]++
			}
		}
	}
	r.logPrior = make([]float64, nTeams)
	r.logProb = make([][]float64, nTeams)
	v := float64(vocab.Size())
	for t := 0; t < nTeams; t++ {
		r.logPrior[t] = math.Log(teamDocs[t] / float64(len(docs)))
		r.logProb[t] = make([]float64, vocab.Size())
		for j := range r.logProb[t] {
			r.logProb[t][j] = math.Log((wordCounts[t][j] + 1) / (totals[t] + v))
		}
	}
	return r, nil
}

// posterior scores every team for the incident text: the posterior
// probabilities, in team order, softmaxed via log-sum-exp.
func (r *NLPRouter) posterior(doc string) []float64 {
	tokens := text.AppendTokens(nil, doc)
	scores := make([]float64, len(r.teams))
	for t := range r.teams {
		s := r.logPrior[t]
		for _, w := range tokens {
			if j, ok := r.vocab.Index[w]; ok {
				s += r.logProb[t][j]
			}
		}
		scores[t] = s
	}
	maxS := math.Inf(-1)
	for _, s := range scores {
		if s > maxS {
			maxS = s
		}
	}
	var z float64
	for t := range scores {
		scores[t] = math.Exp(scores[t] - maxS)
		z += scores[t]
	}
	for t := range scores {
		scores[t] /= z
	}
	return scores
}

// Rank scores every team for the incident text and returns the ranked list
// (posterior probabilities summing to 1) plus the categorical confidence.
func (r *NLPRouter) Rank(doc string) ([]TeamScore, ConfidenceBand) {
	scores := r.posterior(doc)
	out := make([]TeamScore, len(r.teams))
	for t, name := range r.teams {
		out[t] = TeamScore{Team: name, Score: scores[t]}
	}
	slices.SortFunc(out, func(a, b TeamScore) int {
		if a.Score != b.Score {
			return cmp.Compare(b.Score, a.Score)
		}
		return cmp.Compare(a.Team, b.Team)
	})
	return out, band(out)
}

// Route returns the team Rank lists first — the largest posterior, and of
// equal ones the name that sorts first — without ranking the others.
func (r *NLPRouter) Route(doc string) string {
	scores := r.posterior(doc)
	top := 0
	for t := 1; t < len(scores); t++ {
		if c := cmp.Compare(scores[t], scores[top]); c > 0 || c == 0 && r.teams[t] < r.teams[top] {
			top = t
		}
	}
	return r.teams[top]
}

func band(ranked []TeamScore) ConfidenceBand {
	if len(ranked) == 0 {
		return Low
	}
	top := ranked[0].Score
	second := 0.0
	if len(ranked) > 1 {
		second = ranked[1].Score
	}
	switch {
	case top >= 0.8 && top-second >= 0.4:
		return High
	case top >= 0.5:
		return Medium
	default:
		return Low
	}
}
