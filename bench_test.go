// The benchmarks nothing else in the tree measures: the split kernel, one
// retrain cycle's core.Train and its train → pack → reload (scoutbench
// times training only as a whole; these take a CPU or memory profile), and
// DESIGN.md §4's selector-gate ablation. Every table and figure is printed
// by `go run ./cmd/repro` and asserted by internal/experiments' tests;
// serving, featurization and forest inference are timed by the repository
// benchmark (BENCHMARK.json, cmd/scoutbench).
package scouts_test

import (
	"runtime"
	"sync"
	"testing"

	"scouts/internal/core"
	"scouts/internal/experiments"
	"scouts/internal/ml/forest"
)

var (
	benchOnce sync.Once
	benchLab  *experiments.Lab
	benchErr  error
)

// lab builds the shared benchmark world: 150 days at 12 incidents/day.
func lab(b *testing.B) *experiments.Lab {
	b.Helper()
	benchOnce.Do(func() {
		benchLab, benchErr = experiments.NewLab(experiments.LabParams{
			Seed: 20200810, Days: 150, IncidentsPerDay: 12,
		})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchLab
}

// BenchmarkAblationSelectorGates measures the design-choice ablation from
// DESIGN.md §4: full-pipeline accuracy with the selector gates (exclusion
// rules + component gate + meta-selector) versus the raw RF with no gates.
func BenchmarkAblationSelectorGates(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		full := l.Scout.EvaluateWorkers(l.Test, 0)
		raw := l.EvalVectors(l.Scout.Forest())
		if i == 0 {
			b.Logf("\nablation: full pipeline F1=%.3f vs ungated RF on cached vectors F1=%.3f",
				full.F1(), raw.F1())
		}
	}
}

// BenchmarkBestSplit times a 25-tree bootstrap ensemble on the lab's
// cached training matrix: one O(dim·n log n) presort shared by all trees,
// then at each node mtry arrangements — an O(n) expansion of the presort
// order through the node's row multiplicities — and scans, with zero
// per-node allocations. The ensemble matters: a single-tree run
// would charge the whole presort to one tree and understate the kernel
// exactly where it is used. (The seed kernel it
// replaced is the test oracle in internal/ml/forest/oracle_test.go.)
func BenchmarkBestSplit(b *testing.B) {
	l := lab(b)
	train := l.TrainSet()
	p := forest.Params{NumTrees: 25, MaxDepth: 14, Seed: l.Params.Seed, Workers: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := forest.Train(train, p); err != nil {
			b.Fatal(err)
		}
	}
}

// trainWindow is one scoutbench retrain cycle's training: scoutbench's
// world (cloudsim seed 7, 90 days at 10 incidents a day, the §7 split) and
// the newest 200 incidents of the train split, at the first cycle's seed.
func trainWindow(b *testing.B) (*experiments.Lab, core.TrainOptions) {
	l, err := experiments.NewLab(experiments.LabParams{Seed: 7, Days: 90, IncidentsPerDay: 10})
	if err != nil {
		b.Fatal(err)
	}
	return l, core.TrainOptions{
		Config: l.Cfg, Topology: l.Gen.Topology(), Source: l.Gen.Telemetry(),
		Incidents: l.Train[max(0, len(l.Train)-200):], Seed: 9,
	}
}

// BenchmarkTrainWindow times the core.Train of one scoutbench retrain
// cycle, with a seed that moves every cycle. ROADMAP.md's "Where a retrain
// cycle's time goes" is this benchmark under -cpuprofile.
func BenchmarkTrainWindow(b *testing.B) {
	_, opts := trainWindow(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Train(opts); err != nil {
			b.Fatal(err)
		}
		opts.Seed++
	}
}

// BenchmarkRetrainCycle is the model's share of a scoutbench retrain
// cycle: core.Train on BenchmarkTrainWindow's window, SnapshotPack, and the
// reload's core.Restore, whose pack carries the configuration already
// served. Its allocs/op and each stage's own count — train-allocs/op,
// pack-allocs/op and restore-allocs/op, read from the runtime's malloc
// counter around the stage — are ROADMAP.md's "Where a retrain cycle's
// allocations go".
func BenchmarkRetrainCycle(b *testing.B) {
	l, opts := trainWindow(b)
	var stages [3]uint64 // train, pack, restore
	var ms runtime.MemStats
	mallocs := func() uint64 { runtime.ReadMemStats(&ms); return ms.Mallocs }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m0 := mallocs()
		sc, err := core.Train(opts)
		if err != nil {
			b.Fatal(err)
		}
		m1 := mallocs()
		pack, err := sc.SnapshotPack()
		if err != nil {
			b.Fatal(err)
		}
		m2 := mallocs()
		if _, err := core.Restore(pack, l.Gen.Topology(), l.Gen.Telemetry()); err != nil {
			b.Fatal(err)
		}
		m3 := mallocs()
		stages[0] += m1 - m0
		stages[1] += m2 - m1
		stages[2] += m3 - m2
		opts.Seed++
	}
	for k, name := range [...]string{"train", "pack", "restore"} {
		b.ReportMetric(float64(stages[k])/float64(b.N), name+"-allocs/op")
	}
}
