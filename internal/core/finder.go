package core

import (
	"regexp"
	"regexp/syntax"
	"unicode/utf8"
)

// finder enumerates an extractor's matches exactly as
// re.FindAllString(text, -1) does, without running the pattern at every
// position of the text. Go's regexp skips ahead only when a pattern begins
// with a literal, and an extractor that opens with \b — as the PhyNet ones
// do — has none, so the unanchored search restarts the backtracker at every
// byte. The finder instead computes, once per pattern, the set of bytes a
// non-empty match can begin with, scans the text for those bytes alone and
// runs the same pattern anchored at each candidate.
//
// Exactness (DESIGN.md §8.5). The candidates are visited in increasing order
// at the rune boundaries regexp itself steps over, and the first one the
// anchored pattern accepts is the leftmost match; the anchored pattern is
// the operator's own wrapped in a group, so among the matches at that
// position the preferred (leftmost-first) one is chosen by the same program.
// Go's regexp looks behind by exactly one rune (\b \B ^ $), so a candidate
// at i > 0 is run over text[i-w:], w the width of the preceding rune, behind
// a (?s:.) that consumes it; the slice always reaches the end of the text,
// which is all the look-ahead there is. The search resumes at each match's
// end, as FindAll does; a pattern that can match the empty string is not
// taken (FindAll's rules for empty matches are its own), nor is anything
// else the analysis does not understand — those keep FindAllString.
//
// The patterns are ParseConfig's: compiled by regexp.Compile, so Perl
// syntax and leftmost-first. A Regexp switched to leftmost-longest keeps
// that to itself and would not be reproduced.
type finder struct {
	re *regexp.Regexp
	// first[b] is true when a match can begin with byte b. at0 is nil when
	// the pattern is not taken and findAll falls back to re.
	first [256]bool
	at0   *regexp.Regexp // \A(?:re): a match at offset 0
	after *regexp.Regexp // \A(?s:.)(?:re): a match one rune into its input
}

// maxFirstBytes is the widest first-byte set the prefilter is taken for. An
// anchored run costs what three or four positions of the unanchored scan
// cost, more on a long text (the backtracker clears a visited set sized by
// the text it is given), so the prefilter pays while candidates are a small
// share of the text: measured over incident texts (DESIGN.md §8.5), one or
// two bytes run 4–10× faster than FindAllString at every length, the four
// commonest English letters break even at 270 bytes and lose 1.4× at 3 KB.
const maxFirstBytes = 4

// newFinder analyses the pattern once; a pattern the prefilter does not
// take, or takes with too wide a set to pay, keeps FindAllString.
func newFinder(re *regexp.Regexp) *finder {
	if f := prefilter(re); f != nil {
		width := 0
		for _, ok := range f.first {
			if ok {
				width++
			}
		}
		if width <= maxFirstBytes {
			return f
		}
	}
	return &finder{re: re}
}

// prefilter builds the prefiltered finder, or nil when the analysis does
// not understand the pattern.
func prefilter(re *regexp.Regexp) *finder {
	first, ok := firstBytes(re.String())
	if !ok {
		return nil
	}
	at0, err0 := regexp.Compile(`\A(?:` + re.String() + `)`)
	after, err1 := regexp.Compile(`\A(?s:.)(?:` + re.String() + `)`)
	if err0 != nil || err1 != nil {
		return nil
	}
	return &finder{re: re, first: first, at0: at0, after: after}
}

// firstBytes walks the pattern's program from its start through the
// instructions that consume nothing to the first rune instructions, and
// returns the bytes those runes can begin with. Empty-width assertions are
// walked through as if they held: the set may then name a byte no match
// begins with, which costs an anchored run and nothing else. ok is false
// when the empty string matches, or a first rune is unconstrained or
// case-folded.
func firstBytes(pattern string) (first [256]bool, ok bool) {
	parsed, err := syntax.Parse(pattern, syntax.Perl)
	if err != nil {
		return first, false
	}
	prog, err := syntax.Compile(parsed.Simplify())
	if err != nil {
		return first, false
	}
	seen := make([]bool, len(prog.Inst))
	todo := []uint32{uint32(prog.Start)}
	for len(todo) > 0 {
		pc := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		if seen[pc] {
			continue
		}
		seen[pc] = true
		in := &prog.Inst[pc]
		switch in.Op {
		case syntax.InstNop, syntax.InstCapture, syntax.InstEmptyWidth:
			todo = append(todo, in.Out)
		case syntax.InstAlt, syntax.InstAltMatch:
			todo = append(todo, in.Out, in.Arg)
		case syntax.InstFail:
		case syntax.InstRune1, syntax.InstRune:
			if syntax.Flags(in.Arg)&syntax.FoldCase != 0 {
				return first, false
			}
			if len(in.Rune) == 1 {
				addLeadBytes(&first, in.Rune[0], in.Rune[0])
				break
			}
			for i := 0; i+1 < len(in.Rune); i += 2 {
				addLeadBytes(&first, in.Rune[i], in.Rune[i+1])
			}
		default: // InstMatch, the any-rune instructions, anything newer
			return first, false
		}
	}
	return first, true
}

// addLeadBytes marks the first byte of the UTF-8 encoding of every rune in
// [lo, hi]. regexp reads a byte that is not valid UTF-8 as U+FFFD, one byte
// wide, so a range holding U+FFFD can begin with any byte of 0x80–0xFF.
func addLeadBytes(first *[256]bool, lo, hi rune) {
	if lo <= utf8.RuneError && utf8.RuneError <= hi {
		for b := utf8.RuneSelf; b < 256; b++ {
			first[b] = true
		}
	}
	for b := leadByte(lo); b <= leadByte(hi); b++ {
		first[b] = true
	}
}

// leadByte is the first byte of r's UTF-8 encoding; it does not decrease as
// r grows. (The surrogates have no encoding and regexp never decodes one;
// the arithmetic gives them the byte of their neighbours.)
func leadByte(r rune) int {
	switch {
	case r < utf8.RuneSelf:
		return int(r)
	case r < 1<<11:
		return 0xC0 | int(r>>6)
	case r < 1<<16:
		return 0xE0 | int(r>>12)
	default:
		return 0xF0 | int(r>>18)
	}
}

// findAll appends the pattern's successive non-overlapping matches in text
// to dst: what re.FindAllString(text, -1) returns, as substrings of text.
func (f *finder) findAll(dst []string, text string) []string {
	if f.at0 == nil {
		return append(dst, f.re.FindAllString(text, -1)...)
	}
	// i only ever stands on a rune boundary as regexp steps them: 0, one
	// decoded rune further, or the end of a match.
	for i := 0; i < len(text); {
		b := text[i]
		w := 1
		if b >= utf8.RuneSelf {
			_, w = utf8.DecodeRuneInString(text[i:])
		}
		if f.first[b] {
			if i == 0 {
				if m := f.at0.FindString(text); m != "" {
					dst = append(dst, m)
					w = len(m)
				}
			} else {
				_, back := utf8.DecodeLastRuneInString(text[:i])
				if m := f.after.FindString(text[i-back:]); m != "" {
					dst = append(dst, m[back:])
					w = len(m) - back
				}
			}
		}
		i += w
	}
	return dst
}
