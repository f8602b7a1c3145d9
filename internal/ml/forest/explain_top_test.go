package forest

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// oldTop is how both explanations picked what they print before the top-k
// entry existed: rank every feature, then walk the ranking.
func oldTop(contribs []Contribution, k int, skip func(string) bool) []Contribution {
	var out []Contribution
	for _, c := range contribs {
		if len(out) == k {
			break
		}
		if skip != nil && skip(c.Feature) {
			continue
		}
		out = append(out, c)
	}
	return out
}

// oldSignals renders them as both explanations did: Sprintf per signal,
// then a Join.
func oldSignals(top []Contribution) string {
	var parts []string
	for _, c := range top {
		parts = append(parts, fmt.Sprintf("%s (%+.3f)", c.Feature, c.Value))
	}
	return strings.Join(parts, ", ")
}

func skipCounts(feature string) bool { return strings.HasSuffix(feature, ".n") }

func sameContribs(a, b []Contribution) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Feature != b[i].Feature || math.Float64bits(a[i].Value) != math.Float64bits(b[i].Value) {
			return false
		}
	}
	return true
}

// TestExplainTopMatchesExplain: on trained forests, the top-k entry and its
// rendering equal the head of the full ranking, with and without a filter,
// for every k it is asked for, appended behind what the caller already holds.
func TestExplainTopMatchesExplain(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := propertyDataset(400, rng)
	for i := range d.Features {
		if i%3 == 0 {
			d.Features[i] += ".n"
		}
	}
	for _, p := range []Params{{NumTrees: 1, MaxDepth: 3, Seed: 1}, {NumTrees: 7, MaxDepth: 6, Seed: 2}, {NumTrees: 40, MaxDepth: 12, Seed: 3}} {
		f := TrainPointer(d, p)
		for _, x := range propertyProbes(f, 300, rng) {
			_, contribs := f.Explain(x)
			for k := 0; k <= 5; k++ {
				for _, skip := range []func(string) bool{nil, skipCounts} {
					want := oldTop(contribs, k, skip)
					held := []Contribution{{Feature: "held", Value: 9}}
					got := f.TopSignals(held, x, k, skip)
					if !sameContribs(got[:1], held) || !sameContribs(got[1:], want) {
						t.Fatalf("trees=%d k=%d: TopSignals %v, head of Explain %v", p.NumTrees, k, got, want)
					}
					if s := string(f.AppendTopSignals([]byte("x: "), x, k, skip)); s != "x: "+oldSignals(want) {
						t.Fatalf("trees=%d k=%d: AppendTopSignals %q, old rendering %q", p.NumTrees, k, s, "x: "+oldSignals(want))
					}
				}
			}
		}
	}
	empty := &Forest{}
	if got := empty.AppendTopSignals(nil, []float64{1}, 3, nil); len(got) != 0 {
		t.Fatalf("an untrained forest explains %q", got)
	}
}

// TestSelectTopTies feeds the selection accumulated contributions drawn from
// a handful of magnitudes, so ties fall inside the kept k, across its edge
// and outside it, among zeros, signs, filtered features and NaNs. The
// ranking is an unstable sort's: the selection has to reproduce what that
// sort leaves, which no rule of its own (index order, say) does.
func TestSelectTopTies(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tied, reordered := 0, 0
	for round := 0; round < 4000; round++ {
		n := 1 + rng.Intn(60)
		if round%4 == 0 {
			n = 150 + rng.Intn(60) // past the sort's insertion-sort sizes
		}
		f := &Forest{features: make([]string, n), flat: &flatForest{roots: make([]int32, 1+rng.Intn(8))}}
		raw := &rawContribs{sums: make([]float64, n), prior: rng.Float64()}
		levels := 1 + rng.Intn(6)
		for i := range raw.sums {
			f.features[i] = fmt.Sprintf("f%d", i)
			if rng.Intn(5) == 0 {
				f.features[i] += ".n"
			}
			switch v := float64(rng.Intn(levels+1)) / 8; rng.Intn(12) {
			case 0:
				raw.sums[i] = -v
			case 1:
				raw.sums[i] = v + rng.Float64()
			case 2:
				if round%9 == 0 {
					raw.sums[i] = math.NaN()
				}
			default:
				raw.sums[i] = v
			}
		}
		_, contribs := f.finishExplain(raw.prior, raw.sums)
		for k := 1; k <= 4; k++ {
			for _, skip := range []func(string) bool{nil, skipCounts} {
				want := oldTop(contribs, k, skip)
				got := f.selectTop(nil, raw, k, skip)
				if !sameContribs(got, want) {
					t.Fatalf("round %d k=%d: selectTop %v, head of the ranking %v (sums %v)", round, k, got, want, raw.sums)
				}
				for i := 1; i < len(want); i++ {
					if math.Abs(want[i].Value) == math.Abs(want[i-1].Value) {
						tied++
						if want[i].Feature < want[i-1].Feature && len(want[i].Feature) <= len(want[i-1].Feature) {
							reordered++
						}
					}
				}
			}
		}
	}
	if tied < 1000 || reordered < 50 {
		t.Fatalf("only %d ties among the kept, %d of them out of index order: the generator no longer exercises the tie rule", tied, reordered)
	}
}

// TestAppendSignedMatchesSprintf: the strconv rendering is fmt's %+.3f, byte
// for byte, over the corners and over floats drawn across every exponent.
func TestAppendSignedMatchesSprintf(t *testing.T) {
	check := func(v float64) {
		t.Helper()
		if got, want := string(appendSigned([]byte("("), v)), fmt.Sprintf("(%+.3f", v); got != want {
			t.Fatalf("appendSigned(%v) = %q, Sprintf %q", v, got, want)
		}
	}
	for _, v := range []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, -math.MaxFloat64,
		0.0005, -0.0005, 0.00049999999999999, -0.0004, 0.9995, 0.9994999, -0.9995, 9.9995, 99.9995, 1e21, -1e21, 1, -1} {
		check(v)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200000; i++ {
		switch i % 4 {
		case 0:
			check(math.Float64frombits(rng.Uint64())) // every exponent, NaN payloads
		case 1:
			check(rng.Float64()*2 - 1) // where contributions live
		case 2:
			check((float64(rng.Intn(2000001)-1000000) + 0.5) / 1000) // on a rounding edge
		default:
			check(rng.NormFloat64() * 1e-3)
		}
	}
}
