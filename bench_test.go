// Benchmarks regenerating every table and figure of the paper's evaluation
// (see DESIGN.md §3 for the experiment index). Each benchmark runs one
// experiment over a shared lab — a synthetic nine-month-style trace with a
// trained PhyNet Scout — and reports the rows/series via b.Log on the
// first iteration, so `go test -bench . -benchmem` both times the harness
// and prints the reproduced results (use -v to see them).
package scouts_test

import (
	"fmt"
	"sync"
	"testing"

	"scouts/internal/core"
	"scouts/internal/evaluate"
	"scouts/internal/experiments"
	"scouts/internal/ml/forest"
	"scouts/internal/monitoring"
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

// logOnce prints the reproduced table/figure on the first iteration only.
func logOnce(b *testing.B, i int, r interface{ String() string }) {
	if i == 0 {
		b.Log("\n" + r.String())
	}
}

func BenchmarkTable1Models(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logOnce(b, i, experiments.Table1(l))
	}
}

func BenchmarkTable2Datasets(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logOnce(b, i, experiments.Table2(l))
	}
}

func BenchmarkTable3Survey(b *testing.B) {
	for i := 0; i < b.N; i++ {
		logOnce(b, i, experiments.Table3())
	}
}

func BenchmarkTable4AltModels(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table4(l)
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, r)
	}
}

func BenchmarkTable5Deflation(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table5(l)
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, r)
	}
}

func BenchmarkHeadline(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logOnce(b, i, experiments.Headline(l))
	}
}

func BenchmarkScoutInference(b *testing.B) {
	l := lab(b)
	ins := l.Test
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = l.Scout.PredictIncident(ins[i%len(ins)])
	}
}

func BenchmarkFigure1CreatorMix(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logOnce(b, i, experiments.Figure1(l))
	}
}

func BenchmarkFigure2DiagnosisTime(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logOnce(b, i, experiments.Figure2(l))
	}
}

func BenchmarkFigure3Reducible(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logOnce(b, i, experiments.Figure3(l))
	}
}

func BenchmarkFigure4Waypoint(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logOnce(b, i, experiments.Figure4(l))
	}
}

func BenchmarkFigure6OverheadDist(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logOnce(b, i, experiments.Figure6(l))
	}
}

func BenchmarkFigure7GainOverhead(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logOnce(b, i, experiments.Figure7(l))
	}
}

func BenchmarkFigure8Deciders(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure8(l)
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, r)
	}
}

func BenchmarkFigure9Deprecation(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure9(l, 7, 3)
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, r)
	}
}

func BenchmarkFigure10Retraining(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure10(l)
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, r)
	}
}

func BenchmarkFigure11NonPhyNet(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logOnce(b, i, experiments.Figure11(l))
	}
}

func BenchmarkFigure12CRIs(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logOnce(b, i, experiments.Figure12(l, 10))
	}
}

func BenchmarkFigure13ClassDistance(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logOnce(b, i, experiments.Figure13(l))
	}
}

func BenchmarkFigure14ComponentDistance(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logOnce(b, i, experiments.Figure14(l))
	}
}

func BenchmarkFigure15ScoutMaster(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logOnce(b, i, experiments.Figure15(l, 6, 40))
	}
}

func BenchmarkFigure16Imperfect(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logOnce(b, i, experiments.Figure16(l, 8, 600))
	}
}

func BenchmarkStorageScout(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logOnce(b, i, experiments.StorageScout(l))
	}
}

// BenchmarkAblationSelectorGates measures the design-choice ablation from
// DESIGN.md §4: full-pipeline accuracy with the selector gates (exclusion
// rules + component gate + meta-selector) versus the raw RF with no gates.
func BenchmarkAblationSelectorGates(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		full := l.Scout.Evaluate(l.Test)
		raw := l.EvalVectors(l.Scout.Forest())
		if i == 0 {
			b.Logf("\nablation: full pipeline F1=%.3f vs ungated RF on cached vectors F1=%.3f",
				full.F1(), raw.F1())
		}
	}
}

// BenchmarkLatencyDistribution reports the §6 inference-latency summary.
func BenchmarkLatencyDistribution(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logOnce(b, i, experiments.InferenceLatency(l, 100))
	}
}

// BenchmarkForestTrainWorkers sweeps the worker count over forest training
// on the lab's cached training matrix. Output is bit-identical at every
// setting (see DESIGN.md, "Parallel execution layer"); compare ns/op across
// the sub-benchmarks for the speedup. On a multi-core machine workers=4
// should come in well under workers=1; on a single-core container the
// sweep degenerates to equal timings.
func BenchmarkForestTrainWorkers(b *testing.B) {
	l := lab(b)
	train := l.TrainSet()
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			p := l.DefaultForest(l.Params.Seed)
			p.Workers = w
			for i := 0; i < b.N; i++ {
				if _, err := forest.Train(train, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBestSplit times a 25-tree bootstrap ensemble on the lab's
// cached training matrix: one O(dim·n log n) presort shared by all trees,
// then O(mtry·n) split scans with zero per-node allocations. The ensemble
// matters: a single-tree run would charge the whole presort to one tree
// and understate the kernel exactly where it is used. (The seed kernel it
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

// benchWindowOnly hides a source's StatsSource capability so featurization
// falls back to materializing raw windows — the pre-aggregate path.
type benchWindowOnly struct{ monitoring.DataSource }

// BenchmarkFeaturize times one incident featurization through the
// aggregate-backed path ("stats": baseline windows answered as
// WindowStats/EventCount, no raw-window copies) and the materializing path
// ("windows": every window copied, then reduced). Both produce
// bit-identical feature vectors on the simulator source; compare allocs/op
// for the copy-elimination.
func BenchmarkFeaturize(b *testing.B) {
	l := lab(b)
	tel := l.Gen.Telemetry()
	for _, k := range []struct {
		name string
		src  monitoring.DataSource
	}{{"stats", tel}, {"windows", benchWindowOnly{tel}}} {
		b.Run(k.name, func(b *testing.B) {
			fb := core.NewFeatureBuilder(l.Cfg, l.Gen.Topology(), k.src)
			in := l.Test[0]
			ex := fb.Extract(in.Title, in.Body, in.Components)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = fb.Featurize(ex, in.CreatedAt)
			}
		})
	}
}

// BenchmarkWindowStats times window aggregation over a ~100k-point store
// series: "prefix" answers from the O(log n) aggregate layer (prefix sums +
// sparse min/max tables, zero allocations), "scan" materializes the window
// and reduces it — the only option before the aggregate layer existed.
func BenchmarkWindowStats(b *testing.B) {
	s := monitoring.NewStore(0)
	if err := s.Register(monitoring.Descriptor{Name: "cpu", Type: monitoring.TimeSeries}); err != nil {
		b.Fatal(err)
	}
	const n = 100_000
	for i := 0; i < n; i++ {
		v := float64((i*2654435761)%1000) / 10
		if err := s.AppendPoint("cpu", "srv1", monitoring.Point{Time: float64(i) / 10, Value: v}); err != nil {
			b.Fatal(err)
		}
	}
	from, to := float64(n)/10*0.25, float64(n)/10*0.75 // middle half: 50k points
	b.Run("prefix", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := s.WindowStats("cpu", "srv1", from, to); !ok {
				b.Fatal("no stats")
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			vals := s.SeriesWindow("cpu", "srv1", from, to)
			if st := monitoring.StatsOf(vals); st.Count == 0 {
				b.Fatal("no stats")
			}
		}
	})
}

// BenchmarkPredictFlat times forest inference over the lab's cached test
// matrix through the batch entry point, probabilities landing in one
// reused output slice — the forest's one traversal, as serving calls it.
func BenchmarkPredictFlat(b *testing.B) {
	l := lab(b)
	f := l.Scout.Forest()
	out := make([]float64, len(l.TestX))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.PredictProbBatch(l.TestX, out)
	}
}

// BenchmarkEvaluateRunWorkers sweeps the worker count over the §7
// gain/overhead evaluation (prediction fan-out dominates).
func BenchmarkEvaluateRunWorkers(b *testing.B) {
	l := lab(b)
	baseline := evaluate.OverheadDistribution(l.Train, experiments.Team)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				evaluate.RunWorkers(l.Scout, l.Test, experiments.Team, baseline, l.RNG(7), w)
			}
		})
	}
}
