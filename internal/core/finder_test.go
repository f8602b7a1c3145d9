package core

import (
	"regexp"
	"slices"
	"strings"
	"testing"

	"scouts/internal/topology"
)

// finderPatterns are FuzzFindAll's seed patterns: the five PhyNet
// extractors, then one pattern per way the analysis can go — matches the
// empty string, asserts without consuming, anchored, case-folded,
// multi-line, unconstrained, non-ASCII and negated classes, alternations
// whose branches prefer a shorter match.
func finderPatterns(t testing.TB) []string {
	cfg, err := ParseConfig(DefaultPhyNetConfig)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, typ := range topology.AllTypes {
		out = append(out, cfg.Extractors[typ].String())
	}
	return append(out,
		`a*`, `\B`, `^dc\d+`, `(?i)vm\d+`, `(?m)^c\d+$`, `.`, `[^\x00-\x7f]+`,
		`\Bdc\d+`, `é+\b`, `\x{FFFD}`, `[^a]`, `a|ab`, `(a|ab)(c|bcd)`, `dc\d+$`,
		`\bc\d+\z`, `(?s)c.d`, `\pL\d`, `[\x{80}-\x{7ff}]x`, `(?:)`, `x{2,3}?`,
		`(?U)c\d+`, `\d+\.`, `(?P<n>tor)\d`)
}

// finderTexts are its seed texts: names glued to word characters, to each
// other, to multi-byte runes and to bytes that are not UTF-8.
var finderTexts = []string{
	"",
	"vm1.c1.dc1",
	"xvm1.c1.dc1 vm1.c1.dc1x",
	"dc3dc4 dc3 dc4",
	"tor1.c1.dc1agg2.c1.dc1",
	"évm1.c1.dc1 vm1.c1.dc1é",
	"Packet loss on tor2.c3.dc1\nFCS errors in cluster c3.dc1, see srv12.c3.dc1 and VM7.c3.DC1",
	"c1.dc1\nc2\nc3.dc2\n",
	"\xffvm1.c1.dc1\xc3",
	"\xe2\x82dc1 \xe2\x82\xacdc2 \x80\x80dc3",
	"aab abcd abbcd",
	"ééé é1 ñ2x",
	"xxxxx xx x",
}

// TestFinderMatchesFindAllString: every seed pattern over every seed text.
func TestFinderMatchesFindAllString(t *testing.T) {
	understood, taken := 0, 0
	for _, pattern := range finderPatterns(t) {
		re := regexp.MustCompile(pattern)
		if prefilter(re) != nil {
			understood++
		}
		if newFinder(re).at0 != nil {
			taken++
		}
		for _, text := range finderTexts {
			checkFinder(t, re, text)
		}
	}
	if understood < 15 || taken < 10 || taken == understood {
		t.Fatalf("of the seed patterns the analysis understands %d and the finder takes %d: both paths and the width bound need exercising", understood, taken)
	}
}

// checkFinder compares the finder newFinder builds — prefiltered or not —
// and, where the analysis understands the pattern, the prefiltered one
// whatever the width of its first-byte set, with FindAllString.
func checkFinder(t testing.TB, re *regexp.Regexp, text string) {
	t.Helper()
	want := re.FindAllString(text, -1)
	for _, f := range []*finder{newFinder(re), prefilter(re)} {
		if f == nil {
			continue
		}
		if got := f.findAll(nil, text); !slices.Equal(got, want) {
			t.Fatalf("pattern %q (prefiltered: %v) over %q:\nfinder  %q\nregexp  %q", re, f.at0 != nil, text, got, want)
		}
	}
}

// TestFinderTakesTheExtractors: the PhyNet extractors are what the
// prefilter is for; each must take it, with the one or two bytes its names
// begin with.
func TestFinderTakesTheExtractors(t *testing.T) {
	cfg, err := ParseConfig(DefaultPhyNetConfig)
	if err != nil {
		t.Fatal(err)
	}
	want := map[topology.ComponentType]string{
		topology.TypeVM: "v", topology.TypeServer: "s", topology.TypeSwitch: "at",
		topology.TypeCluster: "c", topology.TypeDC: "d",
	}
	for typ, bytes := range want {
		f := newFinder(cfg.Extractors[typ])
		if f.at0 == nil {
			t.Fatalf("%s extractor %q falls back to FindAllString", typ, f.re)
		}
		var got []byte
		for b, ok := range f.first {
			if ok {
				got = append(got, byte(b))
			}
		}
		if string(got) != bytes {
			t.Errorf("%s extractor %q: first bytes %q, want %q", typ, f.re, got, bytes)
		}
	}
}

// FuzzFindAll: for any pattern regexp compiles and any text, the finder
// returns what FindAllString returns.
func FuzzFindAll(f *testing.F) {
	for _, p := range finderPatterns(f) {
		for _, text := range finderTexts {
			f.Add(p, text)
		}
	}
	f.Fuzz(func(t *testing.T, pattern, text string) {
		if len(pattern) > 64 || len(text) > 256 {
			return // keep a backtracking run short
		}
		re, err := regexp.Compile(pattern)
		if err != nil {
			return
		}
		checkFinder(t, re, text)
		// The same text behind one more rune: every match moves off offset 0.
		checkFinder(t, re, "é"+text)
		checkFinder(t, re, strings.Repeat(text, 2))
	})
}
