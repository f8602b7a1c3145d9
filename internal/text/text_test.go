package text

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func TestTokenizeBasics(t *testing.T) {
	got := Tokenize("The VM vm3.c10.dc2 is unable to connect to storage!")
	want := []string{"vm", "vm3.c10.dc2", "unable", "connect", "storage"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestTokenizeKeepsIdentifiers(t *testing.T) {
	got := Tokenize("switch tor-2.c4.dc1 rebooted")
	if len(got) != 3 || got[1] != "tor-2.c4.dc1" {
		t.Fatalf("identifier mangled: %v", got)
	}
}

func TestTokenizeTrimsPunctuation(t *testing.T) {
	got := Tokenize("latency spiked... badly.")
	want := []string{"latency", "spiked", "badly"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
}

func TestTokenizeEmptyAndStopwords(t *testing.T) {
	if got := Tokenize("the a an is to"); len(got) != 0 {
		t.Fatalf("stopwords leaked: %v", got)
	}
	if got := Tokenize(""); len(got) != 0 {
		t.Fatalf("empty input: %v", got)
	}
}

func TestBuildVocabularyMinDocFreq(t *testing.T) {
	docs := [][]string{
		{"latency", "spike"},
		{"latency", "drop"},
		{"reboot"},
	}
	v := BuildVocabulary(docs, VocabOptions{MinDocFreq: 2})
	if v.Size() != 1 || v.Words[0] != "latency" {
		t.Fatalf("vocab: %v", v.Words)
	}
	if v.NumDocs != 3 || v.DocFreq[0] != 2 {
		t.Fatalf("df bookkeeping wrong: %+v", v)
	}
}

func TestBuildVocabularyMaxWords(t *testing.T) {
	// Twenty words, w00 … w19, word i in 1 + i%5 of the documents: five
	// document frequencies, four words at each.
	docs := make([][]string, 5)
	for i := 0; i < 20; i++ {
		for d := 0; d <= i%5; d++ {
			docs[d] = append(docs[d], fmt.Sprintf("w%02d", i))
		}
	}
	v := BuildVocabulary(docs, VocabOptions{MinDocFreq: 1, MaxWords: 6})
	// Highest document frequency first, ties alphabetical: the four words in
	// every document, then the first two of the four in four of them.
	if want := []string{"w04", "w09", "w14", "w19", "w03", "w08"}; !slices.Equal(v.Words, want) {
		t.Fatalf("words %v, want %v", v.Words, want)
	}
}

func TestCountsAndTFIDF(t *testing.T) {
	docs := [][]string{{"x", "x", "y"}, {"y", "z"}, {"z"}, {"z", "x"}}
	v := BuildVocabulary(docs, VocabOptions{MinDocFreq: 1})
	c := v.Counts([]string{"x", "x", "unknown"})
	xi := v.Index["x"]
	if c[xi] != 2 {
		t.Fatalf("count of x = %v", c[xi])
	}
	tf := v.TFIDF([]string{"x", "z"})
	var norm float64
	for _, val := range tf {
		norm += val * val
	}
	if norm < 0.999 || norm > 1.001 {
		t.Fatalf("TF-IDF not L2-normalized: %v", norm)
	}
	if v.TFIDF(nil)[0] != 0 {
		t.Fatal("empty doc should give zero vector")
	}
}

func TestImportantWordsFindDiscriminative(t *testing.T) {
	var docs [][]string
	var labels []bool
	for i := 0; i < 30; i++ {
		docs = append(docs, []string{"packetloss", "switch", "common"})
		labels = append(labels, true)
		docs = append(docs, []string{"disk", "database", "common"})
		labels = append(labels, false)
	}
	v := BuildVocabulary(docs, VocabOptions{MinDocFreq: 1})
	top := ImportantWords(docs, labels, v, 2)
	if len(top) != 2 {
		t.Fatalf("top = %v", top)
	}
	for _, w := range top {
		if w == "common" {
			t.Fatalf("non-discriminative word ranked top: %v", top)
		}
	}
}

func TestWordCounter(t *testing.T) {
	wc := NewWordCounter([]string{"alpha", "beta"})
	x := wc.Featurize([]string{"alpha", "alpha", "gamma"})
	if x[0] != 2 || x[1] != 0 {
		t.Fatalf("features: %v", x)
	}
	if len(wc.Names()) != 2 {
		t.Fatal("names wrong")
	}
}

// TestFeaturizeTextMatchesTokenize: counting tracked words straight off the
// text equals Featurize(Tokenize(s)) — over hand cases for each of
// Tokenize's rules and over generated texts mixing them — for counters
// whose words fit the stack buffer, outgrow it, or are words Tokenize never
// emits.
func TestFeaturizeTextMatchesTokenize(t *testing.T) {
	long := strings.Repeat("x", 70)
	counters := map[string]*WordCounter{
		"plain": NewWordCounter([]string{"tor1.c1.dc1", "packet", "loss", "fcs", "é1", "naïve", "a_b", "a_", "x-y", "k", "42", "ǆ", "ab", "i̇x"}),
		"long":  NewWordCounter([]string{long, long + ".y", "ab", strings.Repeat("é", 40)}),
		// Words no token can equal: a stopword, one byte, trailing and
		// leading punctuation, upper case.
		"never": NewWordCounter([]string{"the", "a", "ab.", "-ab", "AB", "", "a b"}),
		"empty": NewWordCounter(nil),
	}
	hands := []string{
		"",
		"a",
		"ab",
		"Packet LOSS on TOR1.C1.DC1; packet loss, FCS errors. The the THE",
		"...ab... --ab-- __ab__ .a. a. a- a_ a_b a__ x-y x--y x-.-y",
		"ab.", "ab-", "ab_", "ab._", "ab_.", "ab.-.-", "-ab", "_ab", ".ab",
		"é1 É1 naïve NAÏVE Ǆ ǅ ǆ İx K k ① ２２ 42",
		"\xff ab\xff ab\xc3 \xe2\x82ab \xf0\x9f ab\x80cd é\xff1",
		long, long + "y", long + ".y", long + "...", "ab" + strings.Repeat("-", 100), "ab" + strings.Repeat("-", 100) + "c",
		strings.Repeat("é", 40), strings.Repeat("É", 40), strings.Repeat("é", 41),
		"k K K", // the Kelvin sign lower-cases to an ASCII k
	}
	check := func(name string, wc *WordCounter, s string) {
		t.Helper()
		want := wc.Featurize(Tokenize(s))
		var stack [8]float64
		got := wc.FeaturizeText(stack[:0], s)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: FeaturizeText(%q) = %v, Featurize(Tokenize) = %v (tokens %q)", name, s, got, want, Tokenize(s))
		}
		dirty := []float64{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}
		if got := wc.FeaturizeText(dirty, s); !slices.Equal(got, want) {
			t.Fatalf("%s: FeaturizeText into a dirty vector (%q) = %v, want %v", name, s, got, want)
		}
	}
	pieces := []string{"a", "b", "A", "B", "x", "y", "1", "4", "2", ".", "-", "_", " ", "\n", ",", "é", "É", "ï", "K", "ǅ", "İ",
		"\xff", "\xc3", "\xe2\x82", "the", "ab", "packet", "tor1.c1.dc1", "é1", long, "①"}
	rng := rand.New(rand.NewSource(17))
	counted := 0
	for name, wc := range counters {
		for _, s := range hands {
			check(name, wc, s)
		}
		for i := 0; i < 20000; i++ {
			var b strings.Builder
			for n := rng.Intn(12); n > 0; n-- {
				b.WriteString(pieces[rng.Intn(len(pieces))])
			}
			check(name, wc, b.String())
			for _, c := range wc.FeaturizeText(nil, b.String()) {
				counted += int(c)
			}
		}
	}
	if counted < 2000 {
		t.Fatalf("the generated texts hit tracked words only %d times", counted)
	}
}

// TestFeaturizeTextAllocations: with a vector that has the room and words
// that fit the stack buffer, counting allocates nothing.
func TestFeaturizeTextAllocations(t *testing.T) {
	wc := NewWordCounter([]string{"tor1.c1.dc1", "packet", "loss", "naïve"})
	x := make([]float64, 4)
	s := "Packet LOSS on TOR1.C1.DC1; naïve packet loss, FCS errors. The the THE " + strings.Repeat("y", 80)
	if allocs := testing.AllocsPerRun(100, func() { x = wc.FeaturizeText(x, s) }); allocs != 0 {
		t.Fatalf("FeaturizeText allocates %v times per call", allocs)
	}
	if !slices.Equal(x, []float64{1, 2, 2, 1}) {
		t.Fatalf("counts %v", x)
	}
}
