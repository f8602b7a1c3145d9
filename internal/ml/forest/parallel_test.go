package forest

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"scouts/internal/ml/mlcore"
)

// TestParallelTrainingBitIdentical is the determinism contract of the
// worker pool: because per-tree seeds are pre-drawn from the root stream in
// tree order and importances are merged in tree order, the serialized
// forest must be byte-for-byte identical at any worker count.
func TestParallelTrainingBitIdentical(t *testing.T) {
	d := xorDataset(400, 0.1, rand.New(rand.NewSource(21)))
	snapshot := func(workers int) []byte {
		t.Helper()
		f, err := Train(d, Params{NumTrees: 24, MaxDepth: 6, Seed: 99, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return packed(t, f, nil)
	}
	seq := snapshot(1)
	for _, w := range []int{0, 2, 3, 8, 16} {
		if par := snapshot(w); !bytes.Equal(seq, par) {
			t.Fatalf("workers=%d snapshot differs from workers=1 (%d vs %d bytes)",
				w, len(par), len(seq))
		}
	}
}

// TestWorkersExcludedFromSnapshot pins the json:"-" tag on Params.Workers:
// a CPD+ model's forest params travel as JSON in a snapshot's META, and a
// runtime tuning knob must not leak into them (it would break snapshot
// equality across machines with different core counts).
func TestWorkersExcludedFromSnapshot(t *testing.T) {
	b, err := json.Marshal(Params{NumTrees: 4, Seed: 1, Workers: 7})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(b, []byte("orkers")) {
		t.Fatalf("params leak the Workers knob: %s", b)
	}
}

// TestParallelImportanceMatchesSequential checks the importance merge path
// specifically: per-tree accumulators folded in tree order must reproduce
// the sequential accumulation exactly (float addition is not associative,
// so a per-worker merge would drift).
func TestParallelImportanceMatchesSequential(t *testing.T) {
	d := xorDataset(300, 0.2, rand.New(rand.NewSource(23)))
	f1, err := Train(d, Params{NumTrees: 30, MaxDepth: 5, Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	f8, err := Train(d, Params{NumTrees: 30, MaxDepth: 5, Seed: 5, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	i1, i8 := f1.Importance(), f8.Importance()
	for k := range i1 {
		if i1[k] != i8[k] {
			t.Fatalf("importance[%d]: workers=1 %v != workers=8 %v", k, i1[k], i8[k])
		}
	}
}

// TestTrainerReuseMatchesTrain: forests of different shapes trained in a
// row through one Trainer — larger, smaller, weighted, then the first
// again — are byte for byte the forests Train grows afresh, at one worker
// and at three, so nothing a split context or the columns keep from one
// forest reaches the next.
func TestTrainerReuseMatchesTrain(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	big, small, ties := xorDataset(400, 0.1, rng), propertyDataset(90, rng), tieDataset(250, rng)
	weighted := xorDataset(300, 0.2, rng)
	for i := range weighted.Samples {
		weighted.Samples[i].Weight = 0.5 + rng.Float64()
	}
	sets := []*mlcore.Dataset{big, small, ties, weighted, big}
	for _, workers := range []int{1, 3} {
		var tr Trainer
		for k, d := range sets {
			p := Params{NumTrees: 12 + 3*k, MaxDepth: 8, Seed: int64(k), Workers: workers}
			want, err := Train(d, p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tr.Train(d, p)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(packed(t, got, nil), packed(t, want, nil)) {
				t.Fatalf("workers=%d: forest %d through a reused Trainer differs from Train's", workers, k)
			}
		}
	}
}
