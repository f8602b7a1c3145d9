// Package text provides the natural-language machinery the paper's systems
// need: tokenization, vocabularies, bag-of-words and TF-IDF features, and
// the "important words" meta-features used by the Scout's model selector
// (method of Potharaju & Jain [58]). The legacy NLP router that serves as
// the paper's baseline is built on them in the lab (internal/experiments).
package text

import (
	"cmp"
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"
)

// stopwords are common English and ticket-boilerplate words that carry no
// routing signal. The production system filters conversation noise the same
// way (§7: "the text of the incident is often noisy").
var stopwords = map[string]bool{
	"a": true, "an": true, "and": true, "are": true, "as": true, "at": true,
	"be": true, "by": true, "for": true, "from": true, "has": true, "have": true,
	"in": true, "is": true, "it": true, "its": true, "of": true, "on": true,
	"or": true, "that": true, "the": true, "this": true, "to": true, "was": true,
	"we": true, "were": true, "will": true, "with": true, "please": true,
	"hi": true, "hello": true, "thanks": true, "thank": true, "you": true,
}

// AppendTokens lower-cases the text, splits it into alphanumeric tokens,
// dropping stopwords and single characters, and appends them to out: a
// caller tokenizing many documents keeps them in one list, each document a
// run of it. Machine-generated names such as "vm3.c10.dc2" are kept intact
// (dots and dashes inside identifiers do not split) so component mentions
// survive tokenization. Each token is a substring of the lower-cased text:
// the runes a token accepts are contiguous in it, and an invalid byte,
// which decodes as U+FFFD, ends the open token like any other separator.
func AppendTokens(out []string, s string) []string {
	s = strings.ToLower(s)
	open := -1 // where the open token starts, -1 when none is open
	for i, r := range s {
		word := unicode.IsLetter(r) || unicode.IsDigit(r)
		if open < 0 && word {
			open = i
		} else if open >= 0 && !word && r != '.' && r != '-' && r != '_' { // not intra-identifier punctuation
			out, open = appendToken(out, s[open:i]), -1
		}
	}
	if open >= 0 {
		out = appendToken(out, s[open:])
	}
	return out
}

// appendToken closes a token: it loses its trailing '.' and '-', and is
// kept unless shorter than two bytes or a stopword.
func appendToken(out []string, tok string) []string {
	if tok = strings.Trim(tok, ".-"); len(tok) < 2 || stopwords[tok] {
		return out
	}
	return append(out, tok)
}

// Vocabulary maps tokens to dense feature indices.
type Vocabulary struct {
	Index map[string]int
	Words []string
}

// VocabOptions control vocabulary fitting.
type VocabOptions struct {
	// MinDocFreq drops words appearing in fewer documents (default 2).
	MinDocFreq int
	// MaxWords caps the vocabulary by document frequency (default 4096).
	MaxWords int
}

// BuildVocabulary fits a vocabulary over tokenized documents.
func BuildVocabulary(docs [][]string, opt VocabOptions) *Vocabulary {
	if opt.MinDocFreq <= 0 {
		opt.MinDocFreq = 2
	}
	if opt.MaxWords <= 0 {
		opt.MaxWords = 4096
	}
	df := map[string]int{}
	seen := map[string]bool{}
	for _, doc := range docs {
		clear(seen)
		for _, w := range doc {
			if !seen[w] {
				seen[w] = true
				df[w]++
			}
		}
	}
	type wc struct {
		w string
		c int
	}
	var cands []wc
	for w, c := range df {
		if c >= opt.MinDocFreq {
			cands = append(cands, wc{w, c})
		}
	}
	slices.SortFunc(cands, func(a, b wc) int {
		if a.c != b.c {
			return cmp.Compare(b.c, a.c)
		}
		return cmp.Compare(a.w, b.w)
	})
	if len(cands) > opt.MaxWords {
		cands = cands[:opt.MaxWords]
	}
	v := &Vocabulary{Index: map[string]int{}}
	for _, c := range cands {
		v.Index[c.w] = len(v.Words)
		v.Words = append(v.Words, c.w)
	}
	return v
}

// Size returns the vocabulary size.
func (v *Vocabulary) Size() int { return len(v.Words) }

// ImportantWords ranks vocabulary words by chi-square association with a
// binary label over the corpus and returns the top k. The Scout's model
// selector builds its meta-features from these words (§5.3).
func ImportantWords(docs [][]string, labels []bool, vocab *Vocabulary, k int) []string {
	if k <= 0 || vocab.Size() == 0 {
		return nil
	}
	n := len(docs)
	var posDocs int
	// Per-word: document counts in positive / negative class.
	posCount := make([]int, vocab.Size())
	negCount := make([]int, vocab.Size())
	// seenIn[i] is one more than the last document word i was counted in.
	seenIn := make([]int, vocab.Size())
	for d, doc := range docs {
		for _, w := range doc {
			if i, ok := vocab.Index[w]; ok && seenIn[i] != d+1 {
				seenIn[i] = d + 1
				if labels[d] {
					posCount[i]++
				} else {
					negCount[i]++
				}
			}
		}
		if labels[d] {
			posDocs++
		}
	}
	negDocs := n - posDocs
	type ws struct {
		w     string
		score float64
	}
	scored := make([]ws, 0, vocab.Size())
	for i, w := range vocab.Words {
		// 2x2 contingency chi-square with continuity guard.
		a := float64(posCount[i])           // word & pos
		b := float64(negCount[i])           // word & neg
		c := float64(posDocs - posCount[i]) // no word & pos
		d := float64(negDocs - negCount[i]) // no word & neg
		num := (a*d - b*c)
		den := (a + b) * (c + d) * (a + c) * (b + d)
		if den == 0 {
			continue
		}
		chi2 := float64(n) * num * num / den
		scored = append(scored, ws{w, chi2})
	}
	slices.SortFunc(scored, func(a, b ws) int {
		if a.score != b.score {
			return cmp.Compare(b.score, a.score)
		}
		return cmp.Compare(a.w, b.w)
	})
	if len(scored) > k {
		scored = scored[:k]
	}
	out := make([]string, len(scored))
	for i, s := range scored {
		out[i] = s.w
	}
	return out
}

// WordCounter turns a fixed word list into a count featurizer — the
// meta-feature vector ("important words and their frequency").
type WordCounter struct {
	words   []string
	index   map[string]int
	longest int // bytes of the longest tracked word
}

// countToken counts a closed token — the first kept bytes of buf, unless it
// outgrew buf — as AppendTokens and Featurize would: not when shorter than
// two bytes, a stopword or untracked.
func (wc *WordCounter) countToken(x []float64, buf []byte, kept int) {
	if kept < 2 || kept > len(buf) || stopwords[string(buf[:kept])] {
		return
	}
	if j, ok := wc.index[string(buf[:kept])]; ok {
		x[j]++
	}
}

// NewWordCounter builds a counter over the given words. It copies them into
// one string of its own: a token is a substring of its whole document.
func NewWordCounter(words []string) *WordCounter {
	wc := &WordCounter{words: make([]string, len(words)), index: map[string]int{}}
	all := strings.Join(words, "")
	for i, w := range words {
		wc.words[i], all = all[:len(w)], all[len(w):]
		wc.index[wc.words[i]] = i
		wc.longest = max(wc.longest, len(w))
	}
	return wc
}

// Names returns the feature names (the words).
func (wc *WordCounter) Names() []string { return wc.words }

// Featurize counts occurrences of each tracked word in the document.
func (wc *WordCounter) Featurize(doc []string) []float64 {
	x := make([]float64, len(wc.words))
	for _, w := range doc {
		if i, ok := wc.index[w]; ok {
			x[i]++
		}
	}
	return x
}

// FeaturizeText is Featurize(AppendTokens(nil, s)) counted straight off the
// text: no lower-cased copy, no token strings, no token list. The counts
// land in x when it has the room (a caller's stack vector) and the filled
// vector is returned. It applies AppendTokens' rules rune by rune —
// lower-case first, letters and digits open and extend a token, '.', '-'
// and '_' extend an open one, anything else closes it; a closed token loses
// its trailing '.' and '-', and is dropped when shorter than two bytes or a
// stopword — and holds the open token, lower-cased, in a buffer as long as
// the longest tracked word (64 bytes at least, on the stack): a token that
// outgrows it is no tracked word.
func (wc *WordCounter) FeaturizeText(x []float64, s string) []float64 {
	if cap(x) >= len(wc.words) {
		x = x[:len(wc.words)]
		clear(x)
	} else {
		x = make([]float64, len(wc.words))
	}
	wc.CountText(x, s)
	return x
}

// CountText is FeaturizeText adding to the counts x already holds, one cell
// per tracked word, instead of clearing them: a document given in parts is
// counted part by part. Counting t, then b, equals FeaturizeText over t, a
// line break and b, because a line break closes a token as the end of a
// part does.
func (wc *WordCounter) CountText(x []float64, s string) {
	var stack [64]byte
	buf := stack[:]
	if wc.longest > len(buf) {
		buf = make([]byte, wc.longest)
	}
	// size is the open token's length in bytes and kept its length without
	// the trailing '.' and '-'; buf holds its first bytes, as many as fit.
	size, kept := 0, 0
	for i := 0; i < len(s); {
		r, w := rune(s[i]), 1
		if r >= utf8.RuneSelf {
			r, w = utf8.DecodeRuneInString(s[i:])
		}
		i += w
		r = unicode.ToLower(r)
		word := unicode.IsLetter(r) || unicode.IsDigit(r)
		if !word && (size == 0 || (r != '.' && r != '-' && r != '_')) {
			wc.countToken(x, buf, kept)
			size, kept = 0, 0
			continue
		}
		if n := utf8.RuneLen(r); size+n <= len(buf) {
			utf8.EncodeRune(buf[size:], r)
			size += n
		} else {
			size = len(buf) + 1 // outgrown: nothing more is written
		}
		if word || r == '_' {
			kept = size
		}
	}
	wc.countToken(x, buf, kept)
}
