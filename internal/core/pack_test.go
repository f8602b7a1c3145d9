package core

import (
	"bytes"
	"errors"
	"math"
	"testing"
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
