package mlcore

import (
	"math"
	"math/rand"
	"testing"
)

// positives counts the samples with Y == true.
func positives(d *Dataset) int {
	n := 0
	for _, s := range d.Samples {
		if s.Y {
			n++
		}
	}
	return n
}

func synth(n int, posFrac float64, rng *rand.Rand) *Dataset {
	d := NewDataset([]string{"a", "b"})
	for i := 0; i < n; i++ {
		y := rng.Float64() < posFrac
		d.MustAdd(Sample{
			X:    []float64{rng.NormFloat64(), rng.NormFloat64()},
			Y:    y,
			Time: float64(i),
			ID:   string(rune('a'+i%26)) + "-" + string(rune('0'+i%10)),
		})
	}
	return d
}

func TestAddDimensionCheck(t *testing.T) {
	d := NewDataset([]string{"a", "b"})
	if err := d.Add(Sample{X: []float64{1}}); err == nil {
		t.Fatal("expected dimension error")
	}
	if err := d.Add(Sample{X: []float64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 1 || d.Dim() != 2 {
		t.Fatalf("len=%d dim=%d", d.Len(), d.Dim())
	}
}

func TestPaperSplitFractions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := synth(20000, 0.3, rng)
	train, test := PaperSplit(d, DefaultSplit, rand.New(rand.NewSource(2)))
	if train.Len()+test.Len() != d.Len() {
		t.Fatalf("split loses samples: %d + %d != %d", train.Len(), test.Len(), d.Len())
	}
	totPos := positives(d)
	totNeg := d.Len() - totPos
	posFrac := float64(positives(train)) / float64(totPos)
	negFrac := float64(train.Len()-positives(train)) / float64(totNeg)
	if math.Abs(posFrac-0.5) > 0.03 {
		t.Errorf("positive train fraction %v, want ~0.5", posFrac)
	}
	if math.Abs(negFrac-0.35) > 0.03 {
		t.Errorf("negative train fraction %v, want ~0.35", negFrac)
	}
}

func TestPaperSplitDeterministic(t *testing.T) {
	d := synth(500, 0.4, rand.New(rand.NewSource(3)))
	a1, b1 := PaperSplit(d, DefaultSplit, rand.New(rand.NewSource(9)))
	a2, b2 := PaperSplit(d, DefaultSplit, rand.New(rand.NewSource(9)))
	if a1.Len() != a2.Len() || b1.Len() != b2.Len() {
		t.Fatal("same seed should give same split")
	}
	for i := range a1.Samples {
		if a1.Samples[i].ID != a2.Samples[i].ID {
			t.Fatal("split order differs under same seed")
		}
	}
}

func TestTimeSplit(t *testing.T) {
	d := synth(100, 0.5, rand.New(rand.NewSource(4)))
	train, test := TimeSplit(d, 60)
	if train.Len() != 60 || test.Len() != 40 {
		t.Fatalf("time split: %d / %d", train.Len(), test.Len())
	}
	for _, s := range train.Samples {
		if s.Time >= 60 {
			t.Fatal("train sample after cutoff")
		}
	}
}

func TestWindow(t *testing.T) {
	d := synth(100, 0.5, rand.New(rand.NewSource(5)))
	w := d.Window(10, 20)
	if w.Len() != 10 {
		t.Fatalf("window size %d", w.Len())
	}
}

func TestAgeDecayMonotone(t *testing.T) {
	d := synth(50, 0.5, rand.New(rand.NewSource(6)))
	d.AgeDecay(50, 25)
	for i := 1; i < d.Len(); i++ {
		if d.Samples[i].W() < d.Samples[i-1].W() {
			t.Fatal("newer samples should never weigh less after decay")
		}
	}
	if d.Samples[0].W() >= d.Samples[d.Len()-1].W() {
		t.Fatal("oldest sample should weigh less than newest")
	}
}

func TestAgeDecayNoScaleNoop(t *testing.T) {
	d := synth(10, 0.5, rand.New(rand.NewSource(7)))
	d.AgeDecay(10, 0)
	for _, s := range d.Samples {
		if s.Weight != 0 {
			t.Fatal("zero scale should not touch weights")
		}
	}
}

func TestBoost(t *testing.T) {
	d := synth(10, 0.5, rand.New(rand.NewSource(8)))
	target := d.Samples[3].ID
	d.Boost(map[string]bool{target: true}, 4)
	for i, s := range d.Samples {
		want := 1.0
		if s.ID == target {
			want = 4.0
		}
		if math.Abs(s.W()-want) > 1e-12 {
			t.Fatalf("sample %d weight %v want %v", i, s.W(), want)
		}
	}
}

func TestSubsetAndFilter(t *testing.T) {
	d := synth(20, 0.5, rand.New(rand.NewSource(10)))
	sub := d.Subset([]int{0, 5, 19})
	if sub.Len() != 3 || sub.Samples[1].ID != d.Samples[5].ID {
		t.Fatal("subset wrong")
	}
	pos := d.Filter(func(s Sample) bool { return s.Y })
	if pos.Len() != positives(d) {
		t.Fatal("filter wrong")
	}
}

// Filter, Window and the §7 random and by-time splits of a Dataset. Only
// these tests use them: the experiments split incidents, not datasets
// (experiments.NewLab, experiments.Replay).

// Filter returns a dataset of samples for which keep returns true.
func (d *Dataset) Filter(keep func(Sample) bool) *Dataset {
	out := &Dataset{Features: d.Features}
	for _, s := range d.Samples {
		if keep(s) {
			out.Samples = append(out.Samples, s)
		}
	}
	return out
}

// Window returns the samples with Time in [from, to).
func (d *Dataset) Window(from, to float64) *Dataset {
	return d.Filter(func(s Sample) bool { return s.Time >= from && s.Time < to })
}

// SplitOptions control PaperSplit, mirroring §7: the data is split randomly;
// to counter class imbalance only NegTrainFraction of the non-team incidents
// go to the training set (the paper uses 35%), and PosTrainFraction of the
// team's incidents (the paper uses one half).
type SplitOptions struct {
	NegTrainFraction float64
	PosTrainFraction float64
}

// DefaultSplit is the split used in the paper's evaluation.
var DefaultSplit = SplitOptions{NegTrainFraction: 0.35, PosTrainFraction: 0.5}

// PaperSplit randomly partitions the dataset per §7 and returns
// (train, test). The rng makes the split reproducible.
func PaperSplit(d *Dataset, opt SplitOptions, rng *rand.Rand) (train, test *Dataset) {
	if opt.NegTrainFraction <= 0 || opt.NegTrainFraction >= 1 {
		opt.NegTrainFraction = DefaultSplit.NegTrainFraction
	}
	if opt.PosTrainFraction <= 0 || opt.PosTrainFraction >= 1 {
		opt.PosTrainFraction = DefaultSplit.PosTrainFraction
	}
	train = &Dataset{Features: d.Features}
	test = &Dataset{Features: d.Features}
	perm := rng.Perm(len(d.Samples))
	for _, i := range perm {
		s := d.Samples[i]
		frac := opt.NegTrainFraction
		if s.Y {
			frac = opt.PosTrainFraction
		}
		if rng.Float64() < frac {
			train.Samples = append(train.Samples, s)
		} else {
			test.Samples = append(test.Samples, s)
		}
	}
	return train, test
}

// TimeSplit partitions samples by creation time: everything strictly before
// cutoff trains, the rest tests. Used by the retraining experiments
// (Figures 8 and 10).
func TimeSplit(d *Dataset, cutoff float64) (train, test *Dataset) {
	train = &Dataset{Features: d.Features}
	test = &Dataset{Features: d.Features}
	for _, s := range d.Samples {
		if s.Time < cutoff {
			train.Samples = append(train.Samples, s)
		} else {
			test.Samples = append(test.Samples, s)
		}
	}
	return train, test
}
