package forest

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// probeVectors draws in-range and out-of-range probes for the xor layout.
func probeVectors(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = []float64{rng.Float64() * 1.4, rng.Float64() * 1.4, rng.NormFloat64() * 3}
	}
	return xs
}

// TestFlatMatchesPointerKernel pins the traversal's invariant: the flat SoA
// traversal answers exactly — bit for bit — what the oracle's pointer
// traversal answers, for predictions and for explanations.
func TestFlatMatchesPointerKernel(t *testing.T) {
	d := xorDataset(500, 0.15, rand.New(rand.NewSource(21)))
	f := TrainPointer(d, Params{NumTrees: 30, MaxDepth: 8, Seed: 22})
	for i, x := range probeVectors(200, 23) {
		if got, want := f.PredictProb(x), f.PredictProbPointer(x); got != want {
			t.Fatalf("probe %d: flat prob %v != pointer prob %v", i, got, want)
		}
		gp, gc := f.Explain(x)
		wp, wc := f.ExplainPointer(x)
		if gp != wp {
			t.Fatalf("probe %d: flat prior %v != pointer prior %v", i, gp, wp)
		}
		if len(gc) != len(wc) {
			t.Fatalf("probe %d: %d flat contributions != %d pointer", i, len(gc), len(wc))
		}
		for j := range gc {
			if gc[j] != wc[j] {
				t.Fatalf("probe %d contribution %d: flat %+v != pointer %+v", i, j, gc[j], wc[j])
			}
		}
	}
}

// TestFlatSurvivesSnapshotRoundTrip checks that the binary section is the
// trained forest itself: Train's flat arrays, packed and loaded, are
// field for field the arrays Train built, and re-pack to the same bytes.
func TestFlatSurvivesSnapshotRoundTrip(t *testing.T) {
	d := xorDataset(300, 0.1, rand.New(rand.NewSource(24)))
	f, err := Train(d, Params{NumTrees: 15, MaxDepth: 6, Seed: 25})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := f.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ForestFromBinary(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, f) {
		t.Fatal("the loaded forest differs from the trained one")
	}
	blob2, err := r.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("pack -> load -> pack changed the bytes")
	}
}

// TestPredictProbBatch pins batch results bit-identical to per-vector
// calls, exercises the pooled-buffer path, and checks empty batches.
func TestPredictProbBatch(t *testing.T) {
	d := xorDataset(400, 0.1, rand.New(rand.NewSource(27)))
	f, err := Train(d, Params{NumTrees: 20, MaxDepth: 8, Seed: 28})
	if err != nil {
		t.Fatal(err)
	}
	xs := probeVectors(64, 29)
	got := f.PredictProbBatch(xs, nil)
	for i, x := range xs {
		if got[i] != f.PredictProb(x) {
			t.Fatalf("batch[%d] = %v, single = %v", i, got[i], f.PredictProb(x))
		}
	}
	// Pooled buffer: a dirty slice with capacity is reused, not reallocated.
	buf := make([]float64, 0, len(xs))
	buf = append(buf, 999)
	out := f.PredictProbBatch(xs, buf[:cap(buf)])
	if &out[0] != &buf[:1][0] {
		t.Fatal("batch must reuse the caller's buffer")
	}
	for i := range out {
		if out[i] != got[i] {
			t.Fatalf("pooled batch[%d] = %v, want %v", i, out[i], got[i])
		}
	}
	if res := f.PredictProbBatch(nil, nil); len(res) != 0 {
		t.Fatalf("empty batch should answer empty, got %v", res)
	}
}

// TestDimensionMismatchGuard covers the defensive path: short (or long)
// vectors answer the training prior with a logged error — no panic — in
// PredictProb, Explain and the batch fallback.
func TestDimensionMismatchGuard(t *testing.T) {
	d := xorDataset(300, 0.1, rand.New(rand.NewSource(30)))
	f, err := Train(d, Params{NumTrees: 10, MaxDepth: 6, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	var logged []string
	orig := logf
	logf = func(format string, args ...any) { logged = append(logged, format) }
	defer func() { logf = orig }()

	short := []float64{1}
	if got := f.PredictProb(short); got != f.Prior() {
		t.Fatalf("short vector should answer the prior %v, got %v", f.Prior(), got)
	}
	prior, contribs := f.Explain(short)
	if prior != f.Prior() || contribs != nil {
		t.Fatalf("short-vector Explain = (%v, %v), want (prior, nil)", prior, contribs)
	}
	xs := probeVectors(4, 32)
	xs[2] = short // one bad vector answers the prior; its neighbours are untouched
	out := f.PredictProbBatch(xs, nil)
	if out[2] != f.Prior() {
		t.Fatalf("batch bad item should answer the prior, got %v", out[2])
	}
	for _, i := range []int{0, 1, 3} {
		if out[i] != f.PredictProb(xs[i]) {
			t.Fatalf("batch good item %d diverged beside a bad one", i)
		}
	}
	if len(logged) == 0 || !strings.Contains(logged[0], "dimension mismatch") {
		t.Fatalf("mismatches must be logged, got %v", logged)
	}
	if f.Prior() <= 0 || f.Prior() >= 1 {
		t.Fatalf("xor prior should be interior, got %v", f.Prior())
	}
	if math.IsNaN(f.Prior()) {
		t.Fatal("prior is NaN")
	}
}
