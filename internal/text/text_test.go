package text

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unicode"
	"unsafe"
)

func TestTokenizeBasics(t *testing.T) {
	got := tokenize("The VM vm3.c10.dc2 is unable to connect to storage!")
	want := []string{"vm", "vm3.c10.dc2", "unable", "connect", "storage"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestTokenizeKeepsIdentifiers(t *testing.T) {
	got := tokenize("switch tor-2.c4.dc1 rebooted")
	if len(got) != 3 || got[1] != "tor-2.c4.dc1" {
		t.Fatalf("identifier mangled: %v", got)
	}
}

func TestTokenizeTrimsPunctuation(t *testing.T) {
	got := tokenize("latency spiked... badly.")
	want := []string{"latency", "spiked", "badly"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
}

func TestTokenizeEmptyAndStopwords(t *testing.T) {
	if got := tokenize("the a an is to"); len(got) != 0 {
		t.Fatalf("stopwords leaked: %v", got)
	}
	if got := tokenize(""); len(got) != 0 {
		t.Fatalf("empty input: %v", got)
	}
}

func TestBuildVocabularyMinDocFreq(t *testing.T) {
	// "reboot" occurs twice but in one document, so it is dropped: the
	// threshold counts documents, not occurrences.
	docs := [][]string{
		{"latency", "spike"},
		{"latency", "drop"},
		{"reboot", "reboot"},
	}
	v := BuildVocabulary(docs, VocabOptions{MinDocFreq: 2})
	if v.Size() != 1 || v.Words[0] != "latency" {
		t.Fatalf("vocab: %v", v.Words)
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
// text equals Featurize of the text's tokens — over hand cases for each of
// AppendTokens' rules and over generated texts mixing them — for counters
// whose words fit the stack buffer, outgrow it, or are words AppendTokens
// never emits.
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
		want := wc.Featurize(tokenize(s))
		var stack [8]float64
		got := wc.FeaturizeText(stack[:0], s)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: FeaturizeText(%q) = %v, Featurize(tokens) = %v (tokens %q)", name, s, got, want, tokenize(s))
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

// tokenize is one document's tokens.
func tokenize(s string) []string { return AppendTokens(nil, s) }

// oracleTokenize is the tokenizer as it read while it grew each token in a
// strings.Builder, rune by rune, kept verbatim as the oracle for the
// substring-cutting AppendTokens.
func oracleTokenize(s string) []string {
	s = strings.ToLower(s)
	var out []string
	var b strings.Builder
	flush := func() {
		if b.Len() == 0 {
			return
		}
		tok := strings.Trim(b.String(), ".-")
		b.Reset()
		if len(tok) < 2 || stopwords[tok] {
			return
		}
		out = append(out, tok)
	}
	for _, r := range s {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(r)
		case (r == '.' || r == '-' || r == '_') && b.Len() > 0:
			b.WriteRune(r)
		default:
			flush()
		}
	}
	flush()
	return out
}

// FuzzTokenize holds AppendTokens to the builder oracle for any input: the
// same tokens, in order — and a Tokenizer, twice over one arena, appends
// them after what the list held, its first tokens surviving the second
// text's lower-casing. Its seeds cover invalid UTF-8, the upper-case runes
// whose lower-case form has another byte length (İ, the Kelvin sign),
// punctuation around and inside identifiers, and stopwords.
func FuzzTokenize(f *testing.F) {
	for _, s := range []string{
		"", "\xff", "ab\xffcd", "\xc3ab", "ab\xe2\x82cd", "é\xff1", "ab�cd",
		"İstanbul İİ", "Kelvin KK", "İ.x K-9",
		"..a-b..", "-ab-", "a.-", "_x", "x_", "__ab__", "tor1.c1.dc1.",
		"the THE an And please", "The VM vm3.c10.dc2 is unable to connect to storage!",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want := oracleTokenize(s)
		if got := tokenize(s); !slices.Equal(got, want) {
			t.Fatalf("AppendTokens(nil, %q) = %q, oracle %q", s, got, want)
		}
		var tk Tokenizer
		first := tk.AppendTokens(nil, s)
		second := tk.AppendTokens([]string{"held"}, s)
		if !slices.Equal(first, want) || second[0] != "held" || !slices.Equal(second[1:], want) {
			t.Fatalf("Tokenizer.AppendTokens over %q = %q, then %q, oracle %q", s, first, second, want)
		}
	})
}

// FuzzSplitText: an incident's title and body, tokenized or counted one
// after the other, give what their join title + "\n" + body gives — the
// model selector and the lab's deciders read the two parts in turn instead
// of joining them. The counter tracks the join's own tokens beside words
// that outgrow the stack buffer. Its seeds cover a token on each side of the
// break, trailing punctuation before it, invalid UTF-8 and case mappings
// that change byte length at its edges, and line breaks inside a part.
func FuzzSplitText(f *testing.F) {
	long := strings.Repeat("x", 70)
	for _, s := range [][2]string{
		{"", ""}, {"ab", ""}, {"", "ab"}, {"ab", "cd"}, {"ab.", "-cd"}, {"tor1.c1.dc1.", "_x"},
		{"ab\xff", "\xc3cd"}, {"\xe2\x82", "\xacab"}, {"İ", "İx"}, {"K", "k"}, {"ǅ", "ǆ"},
		{"Packet loss on tor2.c3.dc1", "FCS errors in cluster c3.dc1\nsee srv12.c3.dc1"},
		{"the\nThe", "\n\nab"}, {long, "." + long}, {"é" + long, long + "é"},
	} {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, title, body string) {
		joined := title + "\n" + body
		want := tokenize(joined)
		if got := AppendTokens(tokenize(title), body); !slices.Equal(got, want) {
			t.Fatalf("AppendTokens(AppendTokens(nil, %q), %q) = %q, AppendTokens(nil, join) = %q", title, body, got, want)
		}
		words := append(slices.Clone(want), "ab", long, long+".y")
		slices.Sort(words)
		wc := NewWordCounter(slices.Compact(words))
		x := wc.FeaturizeText(nil, title)
		wc.CountText(x, body)
		if join := wc.FeaturizeText(nil, joined); !slices.Equal(x, join) {
			t.Fatalf("counting %q then %q gives %v, FeaturizeText(join) %v", title, body, x, join)
		}
		dirty := make([]float64, len(wc.Names()))
		for i := range dirty {
			dirty[i] = 7
		}
		if got := wc.FeaturizeInto(dirty, want); !slices.Equal(got, x) {
			t.Fatalf("FeaturizeInto over a dirty vector gives %v for %q, FeaturizeText %v", got, want, x)
		}
	})
}

// TestWordCounterKeepsNoDocument: the counter's words equal the tokens they
// came from but share no bytes with the document, so a kept counter does
// not keep its corpus.
func TestWordCounterKeepsNoDocument(t *testing.T) {
	doc := strings.Repeat("padding ", 100) + "latency spike"
	wc := NewWordCounter(tokenize(doc)[99:])
	if !slices.Equal(wc.Names(), []string{"padding", "latency", "spike"}) {
		t.Fatalf("words %q", wc.Names())
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(doc)))
	for _, w := range wc.Names() {
		if p := uintptr(unsafe.Pointer(unsafe.StringData(w))); p >= lo && p < lo+uintptr(len(doc)) {
			t.Fatalf("word %q is a view of its document", w)
		}
	}
}
