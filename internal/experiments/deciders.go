package experiments

import (
	"fmt"

	"scouts/internal/core"
	"scouts/internal/incident"
	"scouts/internal/ml/boost"
	"scouts/internal/ml/mlcore"
	"scouts/internal/ml/svm"
	"scouts/internal/text"
)

// DeciderKind names the model-selector variants of Figure 8 and
// Appendix B's "Evaluating the Model Selector".
type DeciderKind string

// The decider variants.
const (
	DeciderBagOfWords      DeciderKind = "bag-of-words RF"
	DeciderAdaBoost        DeciderKind = "adaboost"
	DeciderSVMConservative DeciderKind = "conservative one-class SVM"
	DeciderSVMAggressive   DeciderKind = "aggressive one-class SVM"
)

// AllDeciders lists the Figure 8 variants.
var AllDeciders = []DeciderKind{
	DeciderBagOfWords, DeciderAdaBoost, DeciderSVMConservative, DeciderSVMAggressive,
}

// buildDecider fits a decider variant from the Scout's selector
// meta-training data: the held-out incidents, each tokenized title and then
// body, and whether the preliminary RF got each wrong. DeciderBagOfWords
// returns nil: the Scout already carries it.
func buildDecider(kind DeciderKind, held []*incident.Incident, rfWrong []bool, seed int64) (core.DeciderModel, error) {
	if kind == DeciderBagOfWords {
		return nil, nil
	}
	tokenized := make([][]string, len(held))
	for i, in := range held {
		tokenized[i] = incidentTokens(in.Title, in.Body)
	}
	vocab := text.BuildVocabulary(tokenized, text.VocabOptions{MinDocFreq: 2, MaxWords: 512})
	words := text.ImportantWords(tokenized, rfWrong, vocab, 60)
	if len(words) == 0 {
		// Degenerate meta-data (RF right everywhere): trust the RF.
		return trustRF{}, nil
	}
	wc := text.NewWordCounter(words)
	switch kind {
	case DeciderAdaBoost:
		d := mlcore.NewDataset(wc.Names())
		for i := range held {
			d.MustAdd(mlcore.Sample{X: wc.Featurize(tokenized[i]), Y: rfWrong[i]})
		}
		model, err := boost.Train(d, boost.Params{Rounds: 60})
		if err != nil {
			return nil, fmt.Errorf("adaboost decider: %w", err)
		}
		return boostDecider{wc: wc, model: model}, nil
	case DeciderSVMConservative, DeciderSVMAggressive:
		// One-class SVMs learn what "old" incidents (those the RF handles)
		// look like; novelty routes to CPD+. The kernel sets the
		// temperament: polynomial is conservative, RBF aggressive
		// (Appendix B).
		var known [][]float64
		for i := range held {
			if !rfWrong[i] {
				known = append(known, wc.Featurize(tokenized[i]))
			}
		}
		if len(known) == 0 {
			return trustRF{}, nil
		}
		params := svm.Params{Kernel: svm.Poly, Nu: 0.05, Seed: seed}
		if kind == DeciderSVMAggressive {
			params = svm.Params{Kernel: svm.RBF, Nu: 0.25, Gamma: 0.5, Seed: seed}
		}
		model, err := svm.Fit(known, params)
		if err != nil {
			return nil, fmt.Errorf("svm decider: %w", err)
		}
		return svmDecider{wc: wc, model: model}, nil
	default:
		return nil, fmt.Errorf("unknown decider %q", kind)
	}
}

// trustRF always keeps the supervised path.
type trustRF struct{}

func (trustRF) UseCPD(_, _ string) (bool, float64) { return false, 0 }

// boostDecider routes to CPD+ when the boosted ensemble predicts the RF
// would be wrong.
type boostDecider struct {
	wc    *text.WordCounter
	model *boost.AdaBoost
}

func (d boostDecider) UseCPD(title, body string) (bool, float64) {
	wrong, conf := d.model.Predict(d.wc.Featurize(incidentTokens(title, body)))
	p := conf
	if !wrong {
		p = 1 - conf
	}
	return wrong, p
}

// svmDecider routes to CPD+ when the incident text looks novel.
type svmDecider struct {
	wc    *text.WordCounter
	model *svm.OneClass
}

func (d svmDecider) UseCPD(title, body string) (bool, float64) {
	inlier, conf := d.model.Predict(d.wc.Featurize(incidentTokens(title, body)))
	p := conf
	if inlier {
		p = 1 - conf
	}
	return !inlier, p
}

// incidentTokens is an incident's tokens, title then body: the tokens of
// incidentText, without the join.
func incidentTokens(title, body string) []string {
	return text.AppendTokens(text.AppendTokens(nil, title), body)
}
