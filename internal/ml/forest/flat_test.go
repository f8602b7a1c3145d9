package forest

import (
	"encoding/json"
	"math"
	"math/rand"
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
	f, err := Train(d, Params{NumTrees: 30, MaxDepth: 8, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
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

// TestFlatSurvivesSnapshotRoundTrip checks the restore path derives the
// same flat view Train does: a restored forest's flat predictions match
// the original's, and the snapshot bytes themselves are unchanged by the
// flat layer (the pointer trees remain the snapshot format).
func TestFlatSurvivesSnapshotRoundTrip(t *testing.T) {
	d := xorDataset(300, 0.1, rand.New(rand.NewSource(24)))
	f, err := Train(d, Params{NumTrees: 15, MaxDepth: 6, Seed: 25})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	var r Forest
	if err := json.Unmarshal(blob, &r); err != nil {
		t.Fatal(err)
	}
	if r.flat == nil {
		t.Fatal("restore must derive the flat view")
	}
	for i, x := range probeVectors(50, 26) {
		if r.PredictProb(x) != f.PredictProb(x) {
			t.Fatalf("probe %d: restored flat forest disagrees", i)
		}
	}
	blob2, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != string(blob2) {
		t.Fatal("flat layer must not change the snapshot format")
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
