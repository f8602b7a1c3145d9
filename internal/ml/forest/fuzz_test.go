package forest

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"scouts/internal/ml/mlcore"
)

// The one decoder a forest can arrive through from outside the process:
// its binary section (ForestFromBinary), inside either Scout snapshot
// envelope behind core.Restore. The target demands three things of any
// input: no panic, no allocation sized by an unchecked length prefix (an
// attempt dies as an out-of-memory crash), and — when the input is
// accepted — a forest that walks, explains and re-packs to a fixed point.
// Committed corpora live under testdata/fuzz; `make fuzz-smoke` runs the
// target for ten seconds on top of them.

// checkAcceptedForest is the post-condition of an accepted input.
func checkAcceptedForest(t *testing.T, f *Forest) {
	t.Helper()
	packed, err := f.AppendBinary(nil)
	if err != nil {
		t.Fatalf("accepted forest does not pack: %v", err)
	}
	back, err := ForestFromBinary(packed)
	if err != nil {
		t.Fatalf("accepted forest's own pack is rejected: %v", err)
	}
	again, err := back.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(packed, again) {
		t.Fatal("pack -> load -> pack is not a fixed point")
	}
	dim := len(f.features)
	for _, fill := range []float64{0, math.NaN(), math.Inf(1), math.Inf(-1)} {
		x := make([]float64, dim)
		for i := range x {
			x[i] = fill
		}
		got, want := f.PredictProb(x), back.PredictProb(x)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("fill %v: forest answers %v, its reloaded pack %v", fill, got, want)
		}
		f.Explain(x)
	}
}

// fuzzSeedForest is a small trained forest FuzzForestFromBinary seeds from.
func fuzzSeedForest(f testing.TB) *Forest {
	d := xorDataset(120, 0.2, rand.New(rand.NewSource(41)))
	forest, err := Train(d, Params{NumTrees: 3, MaxDepth: 4, Seed: 42, Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	return forest
}

func FuzzForestFromBinary(f *testing.F) {
	blob, err := fuzzSeedForest(f).AppendBinary(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add([]byte("FEAT"))
	f.Fuzz(func(t *testing.T, data []byte) {
		forest, err := ForestFromBinary(data)
		if err != nil {
			return
		}
		checkAcceptedForest(t, forest)
	})
}

// readFuzzCorpus returns a fuzz target's committed inputs, keyed by file
// name: each file is "go test fuzz v1" and one []byte("...") line.
func readFuzzCorpus(t *testing.T, target string) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed corpus for %s (%v)", target, err)
	}
	out := make(map[string][]byte, len(paths))
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		header, value, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		quoted, ok := strings.CutPrefix(value, "[]byte(")
		s, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
		if header != "go test fuzz v1" || !ok || err != nil {
			t.Fatalf("%s: not a one-value []byte corpus file (%v)", p, err)
		}
		out[filepath.Base(p)] = []byte(s)
	}
	return out
}

// TestFuzzCorpusReaches pins the check each committed FuzzForestFromBinary
// input reaches, by file name: the error it must produce, or acceptance
// (""). A format change that leaves an input stopping at an earlier check
// fails here instead of quietly turning the corpus into noise.
func TestFuzzCorpusReaches(t *testing.T) {
	want := map[string]string{
		"child_before_parent":          "node 1 child pair 0,1 escapes tree",
		"feat_count_overflow":          "FEAT name count overruns section",
		"feat_name_len_overflow":       "FEAT name length overruns section",
		"prior_mismatch":               "stored prior disagrees with root probabilities",
		"real_cpd_forest_section":      "",
		"real_truncated_in_thresholds": `section "NDTH" claims 4384 bytes, only 2192 remain`,
		"right_child_escapes_tree":     "node 0 child pair 2,3 escapes tree",
		"section_len_overflow":         `section "IMPT" claims 4294967295 bytes`,
		"smallest_split":               "",
		"split_turned_leaf":            "",
	}
	corpus := readFuzzCorpus(t, "FuzzForestFromBinary")
	for name := range corpus {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: committed input has no row", name)
		}
	}
	for name, substr := range want {
		data, ok := corpus[name]
		if !ok {
			t.Errorf("%s: row has no committed input", name)
			continue
		}
		f, err := ForestFromBinary(slices.Clip(data))
		switch {
		case substr == "" && err != nil:
			t.Errorf("%s: refused (%v), want acceptance", name, err)
		case substr == "":
			checkAcceptedForest(t, f)
		case err == nil || !strings.Contains(err.Error(), substr):
			t.Errorf("%s: got %v, want an error containing %q", name, err, substr)
		}
	}
}

// The split kernel's differential target: small training sets decoded from
// bytes, grown by Train. With uniform weights the seed kernel kept as the
// oracle must grow the same forest byte for byte, at one worker and at
// two; with non-uniform weights no oracle orders ties as Train does
// (TestWeightedForestGolden pins those), so the two worker counts must
// agree. Values are finite and few: NaNs are out because the oracle's
// sort.Slice orders nothing consistently around them.

// fuzzWeights are the weight magnitudes of a weighted fuzz input, the
// tie-rounding shape of TestWeightedForestGolden's datasets.
var fuzzWeights = [...]float64{0.1, 0.2, 0.7, 1.3, 3}

// fuzzTrainSet decodes data into a training set and its params. Header:
// dimension (1–6), flags (bit 0: weighted, bit 1: no bootstrap), trees
// (1–4) and max depth (1–8), mtry (0 is the default) and seed. Then each
// row is one byte per value (eight levels, -1.5 to 2), a label byte (bit
// 0) and, when weighted, a weight byte; at most 64 rows, a partial row
// is dropped.
func fuzzTrainSet(data []byte) (d *mlcore.Dataset, p Params, weighted, ok bool) {
	if len(data) < 4 {
		return nil, p, false, false
	}
	dim, flags := 1+int(data[0])%6, data[1]
	weighted = flags&1 != 0
	p = Params{
		NumTrees:         1 + int(data[2])%4,
		MaxDepth:         1 + int(data[2]>>2)%8,
		MTry:             int(data[3]) % (dim + 1),
		Seed:             int64(data[3] >> 3),
		DisableBootstrap: flags&2 != 0,
	}
	width := dim + 1
	if weighted {
		width++
	}
	features := []string{"f0", "f1", "f2", "f3", "f4", "f5"}[:dim]
	d = mlcore.NewDataset(features)
	for row := data[4:]; len(row) >= width && d.Len() < 64; row = row[width:] {
		x := make([]float64, dim)
		for f := range x {
			x[f] = float64(int(row[f]%8)-3) / 2
		}
		s := mlcore.Sample{X: x, Y: row[dim]&1 != 0}
		if weighted {
			s.Weight = fuzzWeights[int(row[dim+1])%len(fuzzWeights)]
		}
		d.MustAdd(s)
	}
	return d, p, weighted, d.Len() > 0
}

// fuzzTrainSeed encodes rows in fuzzTrainSet's layout: each value is a
// level 0–7 (the value (level-3)/2), weights index fuzzWeights.
func fuzzTrainSeed(flags, trees byte, rows [][]byte) []byte {
	out := []byte{byte(len(rows[0]) - 2), flags, trees, 0}
	if flags&1 != 0 {
		out[0]-- // the weight byte
	}
	for _, r := range rows {
		out = append(out, r...)
	}
	return out
}

func FuzzForestTrain(f *testing.F) {
	rng := rand.New(rand.NewSource(31))
	var xor, constant, quant, weighted [][]byte
	for i := 0; i < 64; i++ {
		a, b := byte(rng.Intn(2)), byte(rng.Intn(2))
		// xor: two near-binary columns and a junk one (levels 3 and 5 are 0 and 1).
		xor = append(xor, []byte{3 + 2*a, 3 + 2*b, byte(rng.Intn(8)), a ^ b})
		// constant: the xor problem beside a constant column.
		constant = append(constant, []byte{3 + 2*a, 4, 3 + 2*b, a ^ b})
		// quantised: four-valued columns, a label one of them mostly decides.
		q := []byte{byte(rng.Intn(4)), byte(rng.Intn(4)), byte(rng.Intn(4)), 0}
		q[3] = q[0] / 2
		if rng.Intn(8) == 0 {
			q[3] ^= 1
		}
		quant = append(quant, q)
		weighted = append(weighted, append(append([]byte(nil), q...), byte(rng.Intn(5))))
	}
	f.Add(fuzzTrainSeed(0, 3|5<<2, xor))
	f.Add(fuzzTrainSeed(2, 2|7<<2, constant))
	f.Add(fuzzTrainSeed(0, 3|6<<2, quant))
	f.Add(fuzzTrainSeed(1, 3|7<<2, weighted))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, p, weighted, ok := fuzzTrainSet(data)
		if !ok {
			return
		}
		train := func(fn func(*mlcore.Dataset, Params) (*Forest, error), workers int) []byte {
			p.Workers = workers
			return snapshotWith(t, fn, d, p)
		}
		one, two := train(Train, 1), train(Train, 2)
		if !bytes.Equal(one, two) {
			t.Fatalf("workers 1 and 2 grow different forests (%d vs %d bytes)", len(one), len(two))
		}
		if weighted {
			return
		}
		if ref := train(TrainReference, 1); !bytes.Equal(one, ref) {
			t.Fatalf("Train and the seed kernel grow different forests (%d vs %d bytes)", len(one), len(ref))
		}
	})
}
