package core

import (
	"fmt"
	"math/rand"

	"scouts/internal/ml/forest"
	"scouts/internal/ml/mlcore"
	"scouts/internal/text"
)

// Selector is the model selector of §5.3. After exclusion rules and the
// component gate have run, it decides — per incident — whether the
// supervised random forest can be trusted or whether the incident looks
// "new or rare" and should go to the unsupervised CPD+ path instead.
//
// It is itself a learned model (meta-learning [65]): a random forest over
// meta-features built from the important words of the incident text and
// their frequencies ([58]). It is trained on a held-out slice of the
// training set, labelled by whether a preliminary RF classified each
// incident correctly; it is retrained with the Scout so it adapts as the
// team and its incidents change.
type Selector struct {
	words *text.WordCounter
	rf    *forest.Forest
	// threshold on P(misclassified): above it, use CPD+.
	threshold float64
}

// SelectorParams configure selector training.
type SelectorParams struct {
	// ImportantWords is the meta-feature vocabulary size (default 60).
	ImportantWords int
	// Threshold is the P(RF wrong) above which CPD+ is used (default 0.5).
	Threshold float64
	// Forest parameterizes the meta-model.
	Forest forest.Params
}

func (p SelectorParams) withDefaults() SelectorParams {
	if p.ImportantWords <= 0 {
		p.ImportantWords = 60
	}
	if p.Threshold <= 0 {
		p.Threshold = 0.5
	}
	if p.Forest.NumTrees == 0 {
		p.Forest = forest.Params{NumTrees: 60, MaxDepth: 8, Seed: p.Forest.Seed, Workers: p.Forest.Workers}
	}
	return p
}

// selectorExample is one meta-training example: the incident's title and
// body plus whether the preliminary RF got it wrong.
type selectorExample struct {
	title, body string
	rfWrong     bool
	id          string
}

// trainSelector fits the meta-model. With no examples (or a single class)
// it degrades to "always trust the RF".
func trainSelector(examples []selectorExample, p SelectorParams) (*Selector, error) {
	p = p.withDefaults()
	s := &Selector{threshold: p.Threshold}
	if len(examples) == 0 {
		return s, nil
	}
	docs := make([][]string, len(examples))
	labels := make([]bool, len(examples))
	// One token list for the pass, each document — title, then body — a run
	// of it. A token is two bytes at least and a separator ends it, which
	// sizes the list (as if the two parts were joined by a line break).
	size := 0
	for _, ex := range examples {
		size += (len(ex.title) + len(ex.body) + 2) / 3
	}
	tokens := make([]string, 0, size)
	anyWrong := false
	for i, ex := range examples {
		from := len(tokens)
		tokens = text.AppendTokens(text.AppendTokens(tokens, ex.title), ex.body)
		docs[i] = tokens[from:len(tokens):len(tokens)]
		labels[i] = ex.rfWrong
		anyWrong = anyWrong || ex.rfWrong
	}
	if !anyWrong {
		return s, nil // nothing to learn: RF is right on everything seen
	}
	vocab := text.BuildVocabulary(docs, text.VocabOptions{MinDocFreq: 2})
	important := text.ImportantWords(docs, labels, vocab, p.ImportantWords)
	if len(important) == 0 {
		return s, nil
	}
	s.words = text.NewWordCounter(important)
	d := &mlcore.Dataset{Features: s.words.Names(), Samples: make([]mlcore.Sample, 0, len(examples))}
	for i, ex := range examples {
		d.MustAdd(mlcore.Sample{X: s.words.Featurize(docs[i]), Y: labels[i], ID: ex.id})
	}
	rf, err := forest.Train(d, p.Forest)
	if err != nil {
		return nil, fmt.Errorf("selector: %w", err)
	}
	s.rf = rf
	return s, nil
}

// UseCPD reports whether the incident should be routed to CPD+ and the
// selector's estimate of P(the RF would be wrong).
func (s *Selector) UseCPD(title, body string) (bool, float64) {
	if s.rf == nil || s.words == nil {
		return false, 0
	}
	// The default vocabulary (60 words) is counted into a stack vector,
	// title and then body: what their join with a line break counts.
	var counts [64]float64
	x := s.words.FeaturizeText(counts[:0], title)
	s.words.CountText(x, body)
	wrong, conf := s.rf.Predict(x)
	p := conf
	if !wrong {
		p = 1 - conf
	}
	return p > s.threshold, p
}

// DeciderModel abstracts the selector's inner classifier so the Figure 8
// experiment can swap it (bag-of-words RF, AdaBoost, one-class SVMs).
type DeciderModel interface {
	// UseCPD decides, from the incident's title and body, whether it
	// should use the unsupervised path.
	UseCPD(title, body string) (bool, float64)
}

// Interface conformance.
var _ DeciderModel = (*Selector)(nil)

// holdoutSplit deterministically splits n indices into fit and holdout
// sets (~70/30) for selector meta-training.
func holdoutSplit(n int, seed int64) (fit, holdout []int) {
	rng := rand.New(rand.NewSource(seed))
	for _, i := range rng.Perm(n) {
		if len(holdout) < n*3/10 {
			holdout = append(holdout, i)
		} else {
			fit = append(fit, i)
		}
	}
	return fit, holdout
}
