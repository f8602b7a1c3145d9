package forest_test

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"scouts/internal/cloudsim"
	"scouts/internal/core"
	"scouts/internal/ml/forest"
	"scouts/internal/ml/mlcore"
)

// weightedDataset is a tie-heavy weighted training set: quantised columns
// (long equal-value runs) under weights drawn from a few magnitudes whose
// sums round. Within an equal-value run, the order in which the split scan
// adds weights decides how the left sums round, so this is where a kernel
// that orders ties differently shows. The seed kernel kept as the oracle
// (TrainReference) orders ties however sort.Slice leaves them and does
// not train these forests the way Train does; this golden is their gate.
func weightedDataset(seed int64) *mlcore.Dataset {
	rng := rand.New(rand.NewSource(seed))
	weights := []float64{0.1, 0.2, 0.7, 1.3, 3}
	d := mlcore.NewDataset([]string{"q2", "q3", "q5", "q8", "q6"})
	for i := 0; i < 300; i++ {
		x := []float64{
			float64(rng.Intn(2)),
			float64(rng.Intn(3)),
			float64(rng.Intn(5)) / 4,
			float64(rng.Intn(8)),
			float64(rng.Intn(6)),
		}
		y := (x[0] == 1) != (x[1] == 2)
		if rng.Float64() < 0.15 {
			y = !y
		}
		d.MustAdd(mlcore.Sample{X: x, Y: y, Weight: weights[rng.Intn(len(weights))]})
	}
	return d
}

// packDigest is the sha256 of f's binary section (AppendBinary), which
// carries every split feature, threshold, node probability and importance.
func packDigest(t *testing.T, f *forest.Forest) string {
	t.Helper()
	b, err := f.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestWeightedForestGolden pins what Train grows under non-uniform sample
// weights, where no oracle can: three tie-heavy weighted datasets at one
// worker and at eight, and the main forest of a core.Train under §8's age
// decay and mistake boosting (TestRetrainWithBoostAndDecay's settings) on
// the first half of a 40-day world, every fifth incident boosted. The
// digests are of each forest's binary section, taken from the expansion
// kernel (DESIGN.md §7.1); a split kernel that changes them changes what
// core.Train trains.
func TestWeightedForestGolden(t *testing.T) {
	want := map[int64]string{
		1: "46a8f37a2c907e5aad31178076563ae1d99d484a01a2ef7ba95f99d0670551e4",
		2: "a1abd0fb3bb14e23dfdf1d77be9ddee7ee864afcea04254019f7bb8cce2ba96b",
		3: "63df70a6f5362d51951777923652b905057ee8f3a93998eed121f7d6e343055f",
	}
	for _, seed := range []int64{1, 2, 3} {
		d := weightedDataset(seed)
		for _, workers := range []int{1, 8} {
			f, err := forest.Train(d, forest.Params{NumTrees: 20, MaxDepth: 8, Seed: 77, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if got := packDigest(t, f); got != want[seed] {
				t.Errorf("dataset %d, workers=%d: pack sha256 %s, want %s", seed, workers, got, want[seed])
			}
		}
	}

	gen := cloudsim.New(cloudsim.Params{Seed: 42, Days: 40, IncidentsPerDay: 10})
	cfg, err := core.ParseConfig(core.DefaultPhyNetConfig)
	if err != nil {
		t.Fatal(err)
	}
	log := gen.Generate()
	train := log.Incidents[:len(log.Incidents)/2]
	boost := map[string]bool{}
	for i, in := range train {
		if i%5 == 0 {
			boost[in.ID] = true
		}
	}
	scout, err := core.Train(core.TrainOptions{
		Config:        cfg,
		Topology:      gen.Topology(),
		Source:        gen.Telemetry(),
		Incidents:     train,
		Forest:        forest.Params{NumTrees: 40, MaxDepth: 12, Seed: 9},
		Seed:          9,
		AgeDecayHours: 24 * 60,
		BoostIDs:      boost,
		BoostFactor:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	const wantScout = "6975f3f6f6e97fc828ab80d07c8c3afbe18f8b7c35ce74f1af5ded646a3522a5"
	if got := packDigest(t, scout.Forest()); got != wantScout {
		t.Errorf("core.Train under decay and boost: forest pack sha256 %s, want %s", got, wantScout)
	}
}
