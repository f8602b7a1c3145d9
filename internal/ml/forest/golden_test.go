package forest_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"scouts/internal/experiments"
	"scouts/internal/ml/forest"
)

// TestGoldenEquivalenceOnLabData is the split kernel's golden gate: on a
// realistic fixed-seed lab training set (real feature distributions — heavy
// zero runs, summary-statistic columns), the presorted split kernel and the
// seed kernel kept as the test oracle serialize to byte-identical snapshots, at one worker
// and at eight. A snapshot captures every split feature, threshold, leaf
// probability and node weight, so byte equality means the optimization
// changed nothing but speed.
func TestGoldenEquivalenceOnLabData(t *testing.T) {
	if testing.Short() {
		t.Skip("lab generation is slow")
	}
	lab, err := experiments.NewLab(experiments.LabParams{Days: 40, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	d := lab.TrainSet()
	for _, workers := range []int{1, 8} {
		p := forest.Params{NumTrees: 30, MaxDepth: 14, Seed: 20200810, Workers: workers}
		presorted, err := forest.Train(d, p)
		if err != nil {
			t.Fatal(err)
		}
		seed, err := forest.TrainReference(d, p)
		if err != nil {
			t.Fatal(err)
		}
		a, err := json.Marshal(presorted)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(seed)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("workers=%d: presorted kernel snapshot (%d bytes) differs from seed kernel (%d bytes)",
				workers, len(a), len(b))
		}
	}
}

// TestGoldenFlatInferenceOnLabData is the traversal's golden gate: on the
// real lab matrix, the flat SoA inference kernel answers bit-identical
// predictions AND explanations to the oracle's pointer traversal, for
// forests trained at one worker and at eight (training is bit-identical
// across worker counts, so this also re-checks that the flat view derived
// from each is the same function).
func TestGoldenFlatInferenceOnLabData(t *testing.T) {
	if testing.Short() {
		t.Skip("lab generation is slow")
	}
	lab, err := experiments.NewLab(experiments.LabParams{Days: 40, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	d := lab.TrainSet()
	for _, workers := range []int{1, 8} {
		f, err := forest.Train(d, forest.Params{NumTrees: 30, MaxDepth: 14, Seed: 20200810, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		probs := f.PredictProbBatch(lab.TestX, nil)
		for i, x := range lab.TestX {
			flat := f.PredictProb(x)
			if ptr := f.PredictProbPointer(x); flat != ptr {
				t.Fatalf("workers=%d vector %d: flat %v != pointer %v", workers, i, flat, ptr)
			}
			if probs[i] != flat {
				t.Fatalf("workers=%d vector %d: batch %v != single %v", workers, i, probs[i], flat)
			}
			fp, fc := f.Explain(x)
			pp, pc := f.ExplainPointer(x)
			if fp != pp || len(fc) != len(pc) {
				t.Fatalf("workers=%d vector %d: explanations diverge (prior %v vs %v, %d vs %d contribs)",
					workers, i, fp, pp, len(fc), len(pc))
			}
			for j := range fc {
				if fc[j] != pc[j] {
					t.Fatalf("workers=%d vector %d contribution %d: %+v != %+v", workers, i, j, fc[j], pc[j])
				}
			}
		}
	}
}
