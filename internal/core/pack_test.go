package core

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"scouts/internal/ml/cpd"
	"scouts/internal/ml/forest"
	"scouts/internal/ml/mlcore"
)

// TestScoutpackRoundTrip is the container-level round-trip gate: a Scout
// restored from its scoutpack answers every held-out incident exactly as
// the JSON-restored one does — same verdicts, bit-identical confidences.
func TestScoutpackRoundTrip(t *testing.T) {
	f := getFixture(t)
	jsonSnap, err := f.scout.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	pack, err := f.scout.SnapshotPack()
	if err != nil {
		t.Fatal(err)
	}
	if float64(len(pack)) > float64(len(jsonSnap)) {
		t.Logf("note: pack (%d B) larger than JSON (%d B)", len(pack), len(jsonSnap))
	}

	topo, tel := f.gen.Topology(), f.gen.Telemetry()
	fromJSON, err := Restore(jsonSnap, topo, tel)
	if err != nil {
		t.Fatal(err)
	}
	fromPack, err := Restore(pack, topo, tel)
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range f.test[:80] {
		pj := fromJSON.PredictIncident(in)
		pp := fromPack.PredictIncident(in)
		if pj.Verdict != pp.Verdict || pj.Responsible != pp.Responsible {
			t.Fatalf("incident %d: pack verdict %v/%v != json %v/%v", i, pp.Verdict, pp.Responsible, pj.Verdict, pj.Responsible)
		}
		if math.Float64bits(pj.Confidence) != math.Float64bits(pp.Confidence) {
			t.Fatalf("incident %d: pack confidence %v != json %v", i, pp.Confidence, pj.Confidence)
		}
	}
}

// TestScoutpackRepackIdempotent pins pack → restore → pack as a fixed
// point: packing a pack-restored Scout
// reproduces the original bytes (while the JSON snapshot is refused — the
// pointer trees are gone).
func TestScoutpackRepackIdempotent(t *testing.T) {
	f := getFixture(t)
	pack, err := f.scout.SnapshotPack()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(pack, f.gen.Topology(), f.gen.Telemetry())
	if err != nil {
		t.Fatal(err)
	}
	again, err := restored.SnapshotPack()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pack, again) {
		t.Fatal("repacking a pack-restored scout changed the bytes")
	}
	if _, err := restored.Snapshot(); err == nil {
		t.Fatal("pack-restored scout must refuse the JSON snapshot")
	}
}

// TestScoutpackRejectsCorruption flips and truncates bytes across the
// blob and demands errors: the checksum wall catches payload damage, the
// header checks catch structural damage.
func TestScoutpackRejectsCorruption(t *testing.T) {
	f := getFixture(t)
	pack, err := f.scout.SnapshotPack()
	if err != nil {
		t.Fatal(err)
	}
	// Bit flips at a spread of offsets, including header and deep payload.
	for _, off := range []int{0, 5, 9, 44, 100, len(pack) / 2, len(pack) - 1} {
		blob := append([]byte(nil), pack...)
		blob[off] ^= 0x40
		if _, err := Restore(blob, f.gen.Topology(), f.gen.Telemetry()); err == nil {
			t.Errorf("bit flip at %d restored without error", off)
		}
		if _, err := InspectPack(blob); err == nil {
			t.Errorf("bit flip at %d inspected without error", off)
		}
	}
	// Truncations: torn writes at every growth stage.
	for cut := 0; cut < len(pack); cut += 512 {
		if _, err := InspectPack(pack[:cut]); err == nil {
			t.Errorf("truncation at %d inspected without error", cut)
		}
	}
	// A non-pack blob must answer ErrNotScoutpack so sniffers can fall
	// through to JSON.
	if _, err := parseScoutpack([]byte("not a pack at all")); !errors.Is(err, ErrNotScoutpack) {
		t.Fatalf("want ErrNotScoutpack, got %v", err)
	}
}

// TestInspectPack checks the operator summary against the live scout.
func TestInspectPack(t *testing.T) {
	f := getFixture(t)
	pack, err := f.scout.SnapshotPack()
	if err != nil {
		t.Fatal(err)
	}
	info, err := InspectPack(pack)
	if err != nil {
		t.Fatal(err)
	}
	if info.Bytes != len(pack) || info.Version != scoutpackVersion {
		t.Fatalf("inspect header wrong: %+v", info)
	}
	if info.Trees != f.scout.rf.NumTrees() || info.Nodes != f.scout.rf.NumNodes() {
		t.Fatalf("inspect forest shape wrong: %+v", info)
	}
	if info.Features != len(f.scout.rf.Features()) || info.TrainMeans != len(f.scout.trainMeans) {
		t.Fatalf("inspect layout wrong: %+v", info)
	}
}

// sealPack rewrites a blob's checksum over its own bytes, as a writer
// would have. Without it nearly every mutation dies at the checksum
// compare and the fuzzer never reaches the section table or the forests.
// The copy's capacity is its length, so a read past the end panics even
// where reslicing up to the capacity would not.
func sealPack(data []byte) []byte {
	const sumAt = 8
	out := slices.Clip(bytes.Clone(data))
	if len(out) >= sumAt+sha256.Size {
		sum := sha256.Sum256(out[sumAt+sha256.Size:])
		copy(out[sumAt:], sum[:])
	}
	return out
}

// fuzzSeedPack is a small scoutpack with all four sections: tiny forests
// over a three-feature layout, so the seed is kilobytes, not the
// fixture's hundreds.
func fuzzSeedPack(f *testing.F) []byte {
	rng := rand.New(rand.NewSource(3))
	train := func(seed int64) *forest.Forest {
		d := mlcore.NewDataset([]string{"a", "b", "c"})
		for i := 0; i < 60; i++ {
			x := []float64{rng.Float64(), rng.Float64(), rng.NormFloat64()}
			d.MustAdd(mlcore.Sample{X: x, Y: x[0] > x[1]})
		}
		rf, err := forest.Train(d, forest.Params{NumTrees: 2, MaxDepth: 3, Seed: seed, Workers: 1})
		if err != nil {
			f.Fatal(err)
		}
		return rf
	}
	pack, err := assemblePack(packMetaDTO{
		ConfigSource:      "TEAM PhyNet;",
		TrainMeans:        []float64{0.5, 0.25, -1},
		CPDParams:         cpd.PlusParams{Datasets: []string{"pingmesh"}},
		SelectorWords:     []string{"packet", "link"},
		SelectorThreshold: 0.8,
	}, train(1), train(2), train(3))
	if err != nil {
		f.Fatal(err)
	}
	return pack
}

// FuzzScoutpack holds the one SCPK decoder (decodeScoutpack, behind
// Restore and InspectPack) to: never panic on any bytes; whatever it
// accepts re-packs, and pack → decode → pack is a fixed point; and a
// flipped byte under the old checksum is always refused. Every input is
// re-sealed first.
// The committed corpus (testdata/fuzz/FuzzScoutpack) replays under plain
// `go test`.
func FuzzScoutpack(f *testing.F) {
	pack := fuzzSeedPack(f)
	if _, err := decodeScoutpack(pack); err != nil {
		f.Fatalf("the seed pack is refused: %v", err)
	}
	f.Add(pack)
	f.Add(pack[:len(pack)/2])
	f.Add([]byte(scoutpackMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		data = sealPack(data)
		p, err := decodeScoutpack(data)
		if err != nil {
			return
		}
		repack, err := assemblePack(p.meta, p.rf, p.cpd, p.sel)
		if err != nil {
			t.Fatalf("accepted pack does not re-pack: %v", err)
		}
		back, err := decodeScoutpack(repack)
		if err != nil {
			t.Fatalf("an accepted pack's own re-pack is refused: %v", err)
		}
		again, err := assemblePack(back.meta, back.rf, back.cpd, back.sel)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(repack, again) {
			t.Fatal("pack -> decode -> pack is not a fixed point")
		}
		torn := bytes.Clone(data)
		torn[len(torn)-1] ^= 0x01
		if _, err := decodeScoutpack(torn); err == nil {
			t.Fatal("a flipped byte under the old checksum was accepted")
		}
	})
}
