package forest

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"scouts/internal/section"
)

// packRoundTrip trains a forest, packs it and loads it back.
func packRoundTrip(t *testing.T, workers int) (*Forest, *Forest) {
	t.Helper()
	d := xorDataset(500, 0.15, rand.New(rand.NewSource(41)))
	f, err := Train(d, Params{NumTrees: 30, MaxDepth: 8, Seed: 42, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := f.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ForestFromBinary(blob)
	if err != nil {
		t.Fatal(err)
	}
	return f, back
}

// TestPackRoundTripBitIdentity is the tentpole gate: pack -> load gives a
// forest whose predictions, explanations, prior, importance and feature
// layout are bit-identical to the trained original, for forests grown at
// one worker and at eight (training is worker-count invariant, so the
// packed bytes must be too).
func TestPackRoundTripBitIdentity(t *testing.T) {
	var blobs [][]byte
	for _, workers := range []int{1, 8} {
		f, back := packRoundTrip(t, workers)
		blob, _ := f.AppendBinary(nil)
		blobs = append(blobs, blob)

		if back.NumTrees() != f.NumTrees() || back.NumNodes() != f.NumNodes() {
			t.Fatalf("shape drift: %d/%d trees, %d/%d nodes", back.NumTrees(), f.NumTrees(), back.NumNodes(), f.NumNodes())
		}
		if got, want := back.Features(), f.Features(); len(got) != len(want) {
			t.Fatalf("feature layout drift: %d vs %d", len(got), len(want))
		} else {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("feature %d: %q vs %q", i, got[i], want[i])
				}
			}
		}
		gi, wi := back.Importance(), f.Importance()
		for i := range wi {
			if gi[i] != wi[i] {
				t.Fatalf("importance %d drifted: %v vs %v", i, gi[i], wi[i])
			}
		}
		if back.flat.prior != f.flat.prior {
			t.Fatalf("prior drifted: %v vs %v", back.flat.prior, f.flat.prior)
		}
		xs := probeVectors(100, 43)
		got := back.PredictProbBatch(xs, nil)
		want := f.PredictProbBatch(xs, nil)
		for i, x := range xs {
			if back.PredictProb(x) != f.PredictProb(x) {
				t.Fatalf("probe %d: packed single %v != original %v", i, back.PredictProb(x), f.PredictProb(x))
			}
			if got[i] != want[i] {
				t.Fatalf("probe %d: packed batch %v != original %v", i, got[i], want[i])
			}
			gp, gc := back.Explain(x)
			wp, wc := f.Explain(x)
			if gp != wp || len(gc) != len(wc) {
				t.Fatalf("probe %d: packed explanation diverges", i)
			}
			for j := range gc {
				if gc[j] != wc[j] {
					t.Fatalf("probe %d contribution %d diverges", i, j)
				}
			}
		}
	}
	// Worker-count invariance carries through the binary format.
	if string(blobs[0]) != string(blobs[1]) {
		t.Fatal("packed bytes differ between workers=1 and workers=8")
	}
}

// TestPackRejectsTruncation cuts the blob at every 64-byte step (and at a
// few pathological lengths) and demands a clean error — never a panic,
// never a silently short forest.
func TestPackRejectsTruncation(t *testing.T) {
	f, _ := packRoundTrip(t, 1)
	blob, err := f.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	cuts := []int{0, 1, 3, 4, 7, 8, 9, 15, 16, 23}
	for off := 24; off < len(blob); off += 64 {
		cuts = append(cuts, off)
	}
	for _, cut := range cuts {
		if _, err := ForestFromBinary(blob[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d loaded without error", cut, len(blob))
		}
	}
}

// TestPackRejectsStructuralCorruption patches child indices, feature
// indices and the stored prior and checks the loader's validation wall:
// each corruption errors instead of arming an out-of-bounds (or
// non-terminating) traversal.
func TestPackRejectsStructuralCorruption(t *testing.T) {
	f, _ := packRoundTrip(t, 1)
	pristine, err := f.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ForestFromBinary(pristine); err != nil {
		t.Fatalf("pristine blob must load: %v", err)
	}

	corrupt := func(name string, mutate func([]byte) bool) {
		blob := append([]byte(nil), pristine...)
		if !mutate(blob) {
			t.Fatalf("%s: mutation site not found", name)
		}
		if _, err := ForestFromBinary(blob); err == nil {
			t.Errorf("%s: corrupted blob loaded without error", name)
		}
	}

	// Section payloads alias the blob, so writing through one mutates it.
	sectionPayload := func(blob []byte, tag string) []byte {
		secs, err := section.Read(blob, packLayout)
		if err != nil {
			t.Fatal(err)
		}
		return secs[tag]
	}

	corrupt("unknown tag", func(b []byte) bool { b[0] = 'X'; return true })
	corrupt("child escapes tree", func(b []byte) bool {
		kids := sectionPayload(b, "NDKD")
		binary.LittleEndian.PutUint32(kids, uint32(f.NumNodes()+7)) // root points far outside
		return kids != nil
	})
	corrupt("child before parent", func(b []byte) bool {
		kids := sectionPayload(b, "NDKD")
		// Make node 1 point at node 0: a cycle the kernel would chase forever.
		binary.LittleEndian.PutUint32(kids[4:], 0)
		return kids != nil
	})
	corrupt("feature out of layout", func(b []byte) bool {
		ft := sectionPayload(b, "NDFT")
		binary.LittleEndian.PutUint32(ft, uint32(len(f.Features())+3))
		return ft != nil
	})
	corrupt("prior mismatch", func(b []byte) bool {
		pr := sectionPayload(b, "PRIR")
		binary.LittleEndian.PutUint64(pr, math.Float64bits(0.123456789))
		return pr != nil
	})
	corrupt("section length overrun", func(b []byte) bool {
		// First section header's length field claims more than the buffer.
		binary.LittleEndian.PutUint32(b[4:], uint32(len(b)))
		return true
	})
}

// TestPackEdgeCases covers the degenerate shapes real snapshots can
// contain: a single-leaf tree (a class-pure bootstrap sample) and a NaN
// threshold (never produced by training, but the format must round-trip
// arbitrary float64 bit patterns rather than corrupt them).
func TestPackEdgeCases(t *testing.T) {
	leaf := &tree{nodes: []node{{feature: -1, prob: 0.75}}}
	split := &tree{nodes: []node{
		{feature: 0, threshold: math.NaN(), left: 1, right: 2, prob: 0.5},
		{feature: -1, prob: 0.25},
		{feature: -1, prob: 1},
	}}
	f := &Forest{
		features: []string{"only"},
		imp:      []float64{1},
		flat:     newFlatForest([]tree{*leaf, *split}),
	}

	blob, err := f.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ForestFromBinary(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumTrees() != 2 || back.NumNodes() != 4 {
		t.Fatalf("edge forest shape: %d trees, %d nodes", back.NumTrees(), back.NumNodes())
	}
	// The NaN threshold survives bit-exactly.
	var nanAt = -1
	for i, th := range back.flat.threshold {
		if math.IsNaN(th) {
			nanAt = i
		}
	}
	if nanAt < 0 {
		t.Fatal("NaN threshold did not survive the round trip")
	}
	if got, want := math.Float64bits(back.flat.threshold[nanAt]), math.Float64bits(math.NaN()); got != want {
		t.Fatalf("NaN bit pattern drifted: %x vs %x", got, want)
	}
	// The single-leaf tree answers its leaf for any input, and the exact
	// kernel agrees with the original on non-NaN-threshold paths.
	for _, x := range [][]float64{{0}, {5}, {-5}} {
		if got, want := back.PredictProb(x), f.PredictProb(x); got != want {
			t.Fatalf("edge forest prediction drifted at %v: %v vs %v", x, got, want)
		}
	}
}

// TestPackLayoutGolden pins the binary layout: the section table (tag and
// payload length, in order) and the sha256 of the fuzz seed forest's
// blob. The next format change shows up here as a golden diff to review.
func TestPackLayoutGolden(t *testing.T) {
	blob, err := fuzzSeedForest(t).AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	secs, err := section.Read(blob, packLayout)
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, s := range packLayout {
		fmt.Fprintf(&got, "%s %d\n", s.Tag, len(secs[s.Tag]))
	}
	fmt.Fprintf(&got, "sha256 %x\n", sha256.Sum256(blob))
	const want = `FEAT 24
IMPT 24
NDFT 252
NDTH 504
NDKD 252
NDPB 504
ROOT 12
PRIR 8
sha256 9ce5c67c017a9c032a85f241a626605d23891ee32a52943c7e4b5f619c2be3a8
`
	if got.String() != want {
		t.Fatalf("forest pack layout drifted; got:\n%s", got.String())
	}
}
