package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
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
	if _, err := parseScoutpack([]byte("not a pack at all")); err == nil || !strings.Contains(err.Error(), "not a scoutpack") {
		t.Fatalf("a non-pack blob: got %v, want a not-a-scoutpack error", err)
	}
}

// TestRestoreChecksTrainMeans pins the one META field the loader checks
// against the forests: imputation needs one training mean per routing
// feature, and skips the whole vector when the counts differ, so a
// snapshot one mean short must be refused, in either format, with both
// counts named.
func TestRestoreChecksTrainMeans(t *testing.T) {
	f := getFixture(t)
	dim := len(f.scout.rf.Features())
	want := fmt.Sprintf("%d train means for %d features", dim-1, dim)

	pack, err := f.scout.SnapshotPack()
	if err != nil {
		t.Fatal(err)
	}
	p, err := decodeScoutpack(pack)
	if err != nil {
		t.Fatal(err)
	}
	p.meta.TrainMeans = p.meta.TrainMeans[:dim-1]
	short, err := assemblePack(p)
	if err != nil {
		t.Fatal(err)
	}

	snap, err := f.scout.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var dto snapshotDTO
	if err := json.Unmarshal(snap, &dto); err != nil {
		t.Fatal(err)
	}
	dto.TrainMeans = dto.TrainMeans[:dim-1]
	shortJSON, err := json.Marshal(dto)
	if err != nil {
		t.Fatal(err)
	}

	for name, data := range map[string][]byte{"scoutpack": short, "JSON": shortJSON} {
		if _, err := Restore(data, f.gen.Topology(), f.gen.Telemetry()); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s one train mean short: Restore = %v, want an error containing %q", name, err, want)
		}
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
func fuzzSeedPack(f testing.TB) []byte {
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
	pack, err := assemblePack(scoutParts{
		meta: packMetaDTO{
			ConfigSource:      "TEAM PhyNet;",
			TrainMeans:        []float64{0.5, 0.25, -1},
			CPDParams:         cpd.PlusParams{Datasets: []string{"pingmesh"}},
			SelectorThreshold: 0.8,
		},
		rf: train(1), cpd: train(2), sel: train(3),
	})
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
		repack, err := assemblePack(p)
		if err != nil {
			t.Fatalf("accepted pack does not re-pack: %v", err)
		}
		back, err := decodeScoutpack(repack)
		if err != nil {
			t.Fatalf("an accepted pack's own re-pack is refused: %v", err)
		}
		again, err := assemblePack(back)
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

// TestScoutpackLayoutGolden pins the scoutpack layout: the section table
// (tag and payload length, in order) and the sha256 of fuzzSeedPack. The
// next format change shows up here as a golden diff to review.
func TestScoutpackLayoutGolden(t *testing.T) {
	pack := fuzzSeedPack(t)
	secs, err := parseScoutpack(pack)
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	fmt.Fprintf(&got, "version %d\n", scoutpackVersion)
	for _, s := range scoutpackLayout {
		fmt.Fprintf(&got, "%s %d\n", s.Tag, len(secs[s.Tag]))
	}
	fmt.Fprintf(&got, "sha256 %x\n", sha256.Sum256(pack))
	const want = `version 2
META 287
FRST 603
CRST 603
SRST 603
sha256 26b674b0bdb9116b9fa90aa36990c4edefe6af3645aa76e578683a625754aa48
`
	if got.String() != want {
		t.Fatalf("scoutpack layout drifted; got:\n%s", got.String())
	}
}

// readFuzzCorpus returns a fuzz target's committed inputs, keyed by file
// name: each file is "go test fuzz v1" and one []byte("...") line.
func readFuzzCorpus(t *testing.T, target string) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed corpus for %s (%v)", target, err)
	}
	out := make(map[string][]byte, len(paths))
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		header, value, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		quoted, ok := strings.CutPrefix(value, "[]byte(")
		s, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
		if header != "go test fuzz v1" || !ok || err != nil {
			t.Fatalf("%s: not a one-value []byte corpus file (%v)", p, err)
		}
		out[filepath.Base(p)] = []byte(s)
	}
	return out
}

// TestFuzzCorpusReaches pins the check each committed FuzzScoutpack input
// reaches, by file name, after the re-seal the fuzz target applies: the
// error it must produce. A format change that leaves an input stopping at
// an earlier check fails here instead of quietly turning the corpus into
// noise.
func TestFuzzCorpusReaches(t *testing.T) {
	want := map[string]string{
		"section_header_truncated": "section header truncated",
		"section_len_overflow":     `section "META" claims 4294967295 bytes`,
		"sections_out_of_order":    `section "CRST" unknown, repeated or out of order`,
	}
	corpus := readFuzzCorpus(t, "FuzzScoutpack")
	for name := range corpus {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: committed input has no row", name)
		}
	}
	for name, substr := range want {
		data, ok := corpus[name]
		if !ok {
			t.Errorf("%s: row has no committed input", name)
			continue
		}
		if _, err := decodeScoutpack(sealPack(data)); err == nil || !strings.Contains(err.Error(), substr) {
			t.Errorf("%s: got %v, want an error containing %q", name, err, substr)
		}
	}
}
