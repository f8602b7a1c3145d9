package forest

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// The two decoders a forest can arrive through from outside the process:
// the SFF1 binary section of a scoutpack (ForestFromBinary) and the JSON
// snapshot (UnmarshalJSON, behind core.Restore). Both targets demand the
// same three things of any input: no panic, no allocation sized by an
// unchecked length prefix (an attempt dies as an out-of-memory crash),
// and — when the input is accepted — a forest that walks, explains and
// re-packs to a fixed point. Committed corpora live under testdata/fuzz;
// `make fuzz-smoke` runs each target for ten seconds on top of them.

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
		if f.trees != nil {
			if ptr := f.PredictProbPointer(x); math.Float64bits(ptr) != math.Float64bits(got) {
				t.Fatalf("fill %v: flat traversal %v, pointer oracle %v", fill, got, ptr)
			}
		}
		f.Explain(x)
	}
}

// fuzzSeedForest is a small trained forest both targets seed from.
func fuzzSeedForest(f *testing.F) *Forest {
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
	f.Add([]byte(packMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		forest, err := ForestFromBinary(data)
		if err != nil {
			return
		}
		checkAcceptedForest(t, forest)
	})
}

func FuzzForestUnmarshalJSON(f *testing.F) {
	snap, err := json.Marshal(fuzzSeedForest(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap)
	f.Fuzz(func(t *testing.T, data []byte) {
		var forest Forest
		if err := json.Unmarshal(data, &forest); err != nil {
			return
		}
		checkAcceptedForest(t, &forest)
	})
}
