package core

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"scouts/internal/cloudsim"
	"scouts/internal/incident"
)

// trainWindow is scoutbench's retrain window: cloudsim seed 7, 90 days at
// 10 incidents a day, the §7 split drawn as experiments.NewLab draws it,
// and the newest 200 incidents of its train half.
func trainWindow(t testing.TB) (*cloudsim.Generator, *Config, []*incident.Incident) {
	t.Helper()
	gen := cloudsim.New(cloudsim.Params{Seed: 7, Days: 90, IncidentsPerDay: 10})
	log := gen.Generate()
	cfg, err := ParseConfig(DefaultPhyNetConfig)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7 + 1))
	var train []*incident.Incident
	for _, in := range log.Incidents {
		frac := 0.35
		if in.OwnerLabel == cfg.Team {
			frac = 0.5
		}
		if rng.Float64() < frac {
			train = append(train, in)
		}
	}
	return gen, cfg, train[max(0, len(train)-200):]
}

// TestTrainPackGolden pins what a retrain cycle publishes: the sha256 of
// SnapshotPack after Train on scoutbench's window, at the first two cycle
// seeds and at one worker and two. Training work may be reorganised only
// if every pack stays byte for byte what it was.
func TestTrainPackGolden(t *testing.T) {
	gen, cfg, window := trainWindow(t)
	want := map[int64]string{
		9:  "3e5f1389bb15ea2ab7a8b1a5e6e524df6890a54fb5da947dd1ce7d9018ec6e6d",
		10: "a914406ed6c5d1b362bc92bd8b47b536e66fad7ac562a2f5556673cb90da20e4",
	}
	for _, seed := range []int64{9, 10} {
		for _, workers := range []int{1, 2} {
			sc, err := Train(TrainOptions{
				Config: cfg, Topology: gen.Topology(), Source: gen.Telemetry(),
				Incidents: window, Seed: seed, Workers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			pack, err := sc.SnapshotPack()
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(pack)); got != want[seed] {
				t.Errorf("seed %d, %d workers: pack sha256 %s, want %s", seed, workers, got, want[seed])
			}
		}
	}
}
