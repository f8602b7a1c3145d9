package experiments

import (
	"strings"
	"sync"
	"testing"
	"time"
)

var (
	testLabOnce sync.Once
	testLab     *Lab
	testLabErr  error
)

// smallLab builds a reduced-scale lab shared by all experiment tests.
func smallLab(t *testing.T) *Lab {
	t.Helper()
	testLabOnce.Do(func() {
		testLab, testLabErr = NewLab(LabParams{Seed: 99, Days: 90, IncidentsPerDay: 9})
	})
	if testLabErr != nil {
		t.Fatal(testLabErr)
	}
	return testLab
}

func TestLabShape(t *testing.T) {
	lab := smallLab(t)
	if lab.Log.Len() < 400 {
		t.Fatalf("trace too small: %d", lab.Log.Len())
	}
	if len(lab.Train) == 0 || len(lab.Test) == 0 {
		t.Fatal("empty split")
	}
	if len(lab.TrainX) == 0 || len(lab.TestX) == 0 {
		t.Fatal("empty matrices")
	}
	if len(lab.TrainX[0]) != len(lab.Scout.FeatureNames()) {
		t.Fatal("matrix dimension mismatch")
	}
}

func TestTable1Shape(t *testing.T) {
	lab := smallLab(t)
	r := Table1(lab)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	rf := r.Rows[0]
	if rf.F1 < 0.85 {
		t.Fatalf("RF F1 = %v too low (paper: 0.97)", rf.F1)
	}
	// The paper's ordering: RF is the most accurate model.
	for _, row := range r.Rows[1:] {
		if row.F1 > rf.F1+0.03 {
			t.Fatalf("RF should lead Table 1: %v", r.Rows)
		}
	}
	if !strings.Contains(r.String(), "NLP") {
		t.Fatal("rendering broken")
	}
}

func TestTable2Shape(t *testing.T) {
	r := Table2(smallLab(t))
	if len(r.Rows) != 12 {
		t.Fatalf("Table 2 should list the 12 datasets, got %d", len(r.Rows))
	}
}

func TestTable3Shape(t *testing.T) {
	r := Table3()
	if r.Aggregates.Total != 27 {
		t.Fatalf("total = %d", r.Aggregates.Total)
	}
}

func TestTable4Shape(t *testing.T) {
	lab := smallLab(t)
	r, err := Table4(lab)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	f1 := map[string]float64{}
	for _, row := range r.Rows {
		if row.F1 < 0.3 || row.F1 > 1 {
			t.Fatalf("%s F1 = %v out of band", row.Name, row.F1)
		}
		f1[row.Name] = row.F1
	}
	// The paper's qualitative ordering: GNB is the weakest model.
	for name, v := range f1 {
		if name == "Gaussian naive Bayes" {
			continue
		}
		if f1["Gaussian naive Bayes"] > v+0.05 {
			t.Fatalf("GNB (%v) should trail %s (%v)", f1["Gaussian naive Bayes"], name, v)
		}
	}
}

func TestTable5Shape(t *testing.T) {
	lab := smallLab(t)
	r, err := Table5(lab)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 7 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	all := r.Rows[6]
	if all.Name != "All" {
		t.Fatalf("last row should be All: %v", all)
	}
	serverOnly := r.Rows[0]
	if serverOnly.F1 >= all.F1 {
		t.Fatalf("server-only (%v) should trail all features (%v)", serverOnly.F1, all.F1)
	}
}

func TestHeadline(t *testing.T) {
	lab := smallLab(t)
	h := Headline(lab)
	if h.Scout.F1 <= h.Baseline.F1 {
		t.Fatalf("Scout (%v) should beat the baseline (%v)", h.Scout.F1, h.Baseline.F1)
	}
	if h.Scout.F1 < 0.85 {
		t.Fatalf("Scout F1 = %v", h.Scout.F1)
	}
}

func TestFigure1Through4(t *testing.T) {
	lab := smallLab(t)
	f1 := Figure1(lab)
	if len(f1.CreatorCDFs) != 3 || len(f1.MisroutedCDFs) != 3 {
		t.Fatal("figure 1 series missing")
	}
	f2 := Figure2(lab)
	if f2.MeanRatio < 3 {
		t.Fatalf("multi/single ratio = %v, want large (paper: 10x)", f2.MeanRatio)
	}
	f3 := Figure3(lab)
	if len(f3.Reducible.Points) == 0 {
		t.Fatal("figure 3 empty")
	}
	// Paper: for 20% of mis-routed incidents, >50% of time reducible.
	lastQ := f3.Reducible.Points[len(f3.Reducible.Points)-1]
	if lastQ[0] < 50 {
		t.Fatalf("max reducible = %v%%, expected high", lastQ[0])
	}
	f4 := Figure4(lab)
	if f4.Median < 15 || f4.Median > 75 {
		t.Fatalf("waypoint median = %v%%, paper reports 35%%", f4.Median)
	}
}

func TestFigure6And7(t *testing.T) {
	lab := smallLab(t)
	f6 := Figure6(lab)
	if f6.Overhead.Points[0][0] < 0 {
		t.Fatal("overhead cannot be negative")
	}
	f7 := Figure7(lab)
	if f7.ErrorOut > 0.15 {
		t.Fatalf("error-out = %v, too high (paper: 1.7%%)", f7.ErrorOut)
	}
	if f7.CorrectOnCorrect < 0.9 {
		t.Fatalf("correct-on-correct = %v (paper: 98.9%%)", f7.CorrectOnCorrect)
	}
	// Gain-in should track best possible closely in the median (paper: gap
	// < 5%).
	gain := f7.GainIn.Points[5][0]
	best := f7.BestGainIn.Points[5][0]
	if best-gain > 0.25 {
		t.Fatalf("median gain %v too far from best possible %v", gain, best)
	}
}

func TestFigure11(t *testing.T) {
	lab := smallLab(t)
	f := Figure11(lab)
	if len(f.GainIn.Points) == 0 {
		t.Fatal("figure 11 empty")
	}
	if f.ErrorOut > 0.2 {
		t.Fatalf("error-out = %v", f.ErrorOut)
	}
}

func TestFigure12Shape(t *testing.T) {
	lab := smallLab(t)
	f := Figure12(lab, 6)
	if len(f.Rows) != 6 {
		t.Fatalf("rows = %d", len(f.Rows))
	}
	// Gains must shrink as the Scout triggers later: by the last teams
	// there is little left to save.
	if f.Rows[5].GainInMax > f.Rows[0].GainInMax+1e-9 && f.Rows[0].GainInMax > 0 {
		t.Fatalf("late triggers should not beat early max gain: %v vs %v",
			f.Rows[5].GainInMax, f.Rows[0].GainInMax)
	}
}

func TestFigure13And14(t *testing.T) {
	lab := smallLab(t)
	f13 := Figure13(lab)
	// Cross-class distances should stochastically dominate within-class
	// ones at the median.
	cross := f13.Cross.Points[5][0]
	within := f13.WithinPos.Points[5][0]
	if cross <= 0 {
		t.Fatal("cross distances empty")
	}
	_ = within // separation is asserted qualitatively in Figure14 below
	f14 := Figure14(lab)
	if len(f14.PerType) != 3 {
		t.Fatalf("figure 14 types = %d", len(f14.PerType))
	}
}

func TestFigure9(t *testing.T) {
	lab := smallLab(t)
	r, err := Figure9(lab, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.N) != 4 {
		t.Fatalf("points = %d", len(r.N))
	}
	// Average case should stay close to baseline for small n; worst case
	// should never beat average by a wide margin.
	if r.Baseline-r.AvgCase[0] > 0.08 {
		t.Fatalf("removing one random monitor dropped F1 too much: %v -> %v", r.Baseline, r.AvgCase[0])
	}
	for i := range r.N {
		if r.WorstCase[i] > r.AvgCase[i]+0.05 {
			t.Fatalf("worst case (%v) above average case (%v) at n=%d", r.WorstCase[i], r.AvgCase[i], r.N[i])
		}
	}
}

func TestReplaySmall(t *testing.T) {
	lab := smallLab(t)
	pts, err := Replay(lab, ReplayOptions{WarmupDays: 40, RetrainEveryDays: 20, EvalChunkDays: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("no replay points")
	}
	for _, p := range pts {
		if p.F1 < 0 || p.F1 > 1 {
			t.Fatalf("F1 %v out of range", p.F1)
		}
	}
}

func TestReplayAlternativeDecider(t *testing.T) {
	lab := smallLab(t)
	pts, err := Replay(lab, ReplayOptions{WarmupDays: 45, RetrainEveryDays: 45, EvalChunkDays: 45, Decider: DeciderAdaBoost})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("no points with adaboost decider")
	}
}

func TestFigure15(t *testing.T) {
	lab := smallLab(t)
	f := Figure15(lab, 3, 10)
	if len(f.PerCount) != 3 {
		t.Fatalf("series = %d", len(f.PerCount))
	}
	// More Scouts help: the mean of the pooled distribution grows.
	mean := func(s Series) float64 {
		sum := 0.0
		for _, p := range s.Points {
			sum += p[0]
		}
		return sum / float64(len(s.Points))
	}
	if mean(f.PerCount[2]) <= mean(f.PerCount[0]) {
		t.Fatalf("3 Scouts (%v) should beat 1 (%v)", mean(f.PerCount[2]), mean(f.PerCount[0]))
	}
	if mean(f.BestPossible) < mean(f.PerCount[2]) {
		t.Fatal("best possible should dominate")
	}
}

func TestFigure16(t *testing.T) {
	lab := smallLab(t)
	f := Figure16(lab, 4, 150)
	cells := f.PerCount[1]
	if len(cells) != 7*6 {
		t.Fatalf("cells = %d", len(cells))
	}
	// Higher accuracy should produce higher average gain, comparing the
	// extreme alpha values at beta = 0.
	var low, high float64
	for _, c := range cells {
		if c.Beta != 0 {
			continue
		}
		if c.Alpha == 0.70 {
			low = c.Avg
		}
		if c.Alpha == 1.0 {
			high = c.Avg
		}
	}
	if high <= low {
		t.Fatalf("alpha=1 (%v) should beat alpha=0.7 (%v)", high, low)
	}
}

func TestStorageScout(t *testing.T) {
	lab := smallLab(t)
	r := StorageScout(lab)
	if r.Row.Recall < 0.8 {
		t.Fatalf("rule scout recall = %v, should be high (paper: 99.5%%)", r.Row.Recall)
	}
	if r.Row.Precision > r.Row.Recall {
		t.Fatalf("rule scout should trade precision for recall: %v", r.Row)
	}
}

func TestInferenceLatency(t *testing.T) {
	lab := smallLab(t)
	l := InferenceLatency(lab, 20)
	if l.Samples != 20 || l.MeanSeconds <= 0 {
		t.Fatalf("latency result: %+v", l)
	}
	if l.MeanSeconds > 5 {
		t.Fatalf("inference too slow: %v s", l.MeanSeconds)
	}

	// Under an injected clock that advances 250 ms a reading, every
	// prediction reads it twice and takes exactly 0.25 s.
	now := time.Unix(1700000000, 0)
	lab.Clock = func() time.Time {
		now = now.Add(250 * time.Millisecond)
		return now
	}
	defer func() { lab.Clock = nil }()
	if l := InferenceLatency(lab, 20); l.MeanSeconds != 0.25 || l.StdSeconds != 0 || l.Samples != 20 {
		t.Fatalf("under the injected clock: %+v, want a mean of 0.25 s and no spread over 20 calls", l)
	}
}
