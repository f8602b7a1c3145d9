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

	"scouts/internal/incident"
	"scouts/internal/ml/cpd"
	"scouts/internal/ml/forest"
	"scouts/internal/ml/mlcore"
)

// TestScoutpackRoundTrip is the JSON envelope's round trip: it carries
// the scoutpack's parts, forest sections included, so a Scout restored
// from it re-packs to the trained Scout's bytes and answers every
// held-out incident alike.
func TestScoutpackRoundTrip(t *testing.T) {
	f := getFixture(t)
	snap, err := f.scout.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(snap, f.gen.Topology(), f.gen.Telemetry())
	if err != nil {
		t.Fatal(err)
	}
	requireSameSnapshots(t, restored, f.scout)
	requireSameAnswers(t, restored, f.scout, f.test)
}

// TestRestoreRefusesMalformedJSON feeds Restore JSON envelopes that are
// broken in each of the ways only that envelope can be: bad base64, no
// routing forest, and a forest section the forest decoder refuses.
func TestRestoreRefusesMalformedJSON(t *testing.T) {
	f := getFixture(t)
	snap, err := f.scout.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var dto snapshotDTO
	if err := json.Unmarshal(snap, &dto); err != nil {
		t.Fatal(err)
	}
	frst := dto.Forests["FRST"]
	for _, tc := range []struct {
		name, want string
		edit       func(forests map[string]any)
	}{
		{"bad base64", "illegal base64", func(fs map[string]any) { fs["FRST"] = "not*base64" }},
		{"no routing forest", "no routing forest", func(fs map[string]any) { delete(fs, "FRST") }},
		{"truncated forest", "routing forest: forest:", func(fs map[string]any) { fs["FRST"] = frst[:len(frst)/2] }},
	} {
		forests := map[string]any{}
		for tag, blob := range dto.Forests {
			forests[tag] = blob
		}
		tc.edit(forests)
		data, err := json.Marshal(struct {
			packMetaDTO
			Forests map[string]any `json:"forests"`
		}{dto.packMetaDTO, forests})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Restore(data, f.gen.Topology(), f.gen.Telemetry()); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Restore = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestScoutpackRepackIdempotent pins that a trained Scout and
// Restore(SnapshotPack(s)) are one model: both snapshots of the restored
// Scout are byte-equal to the trained one's, and it answers every
// held-out incident with the same verdict, label, confidence bits and
// explanation.
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
	requireSameSnapshots(t, restored, f.scout)
	requireSameAnswers(t, restored, f.scout, f.test)
}

// requireSameSnapshots fails unless got's scoutpack and JSON snapshot are
// byte for byte want's.
func requireSameSnapshots(t *testing.T, got, want *Scout) {
	t.Helper()
	for name, snap := range map[string]func(*Scout) ([]byte, error){"SnapshotPack": (*Scout).SnapshotPack, "Snapshot": (*Scout).Snapshot} {
		g, err := snap(got)
		if err != nil {
			t.Fatal(err)
		}
		w, err := snap(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Errorf("%s differs: %d bytes, want %d", name, len(g), len(w))
		}
	}
}

// requireSameAnswers fails unless got and want answer every incident with
// the same verdict, label, model, confidence bits and explanation.
func requireSameAnswers(t *testing.T, got, want *Scout, ins []*incident.Incident) {
	t.Helper()
	for _, in := range ins {
		g, w := got.PredictIncident(in), want.PredictIncident(in)
		if g.Verdict != w.Verdict || g.Responsible != w.Responsible || g.Model != w.Model ||
			math.Float64bits(g.Confidence) != math.Float64bits(w.Confidence) || g.Explanation != w.Explanation {
			t.Fatalf("incident %s: answered %+v, want %+v", in.ID, g, w)
		}
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

// TestRestoreChecksTrainMeans pins the META field the loader checks
// against the routing forest: imputation needs one training mean per
// routing feature, and skips the whole vector when the counts differ, so
// a snapshot one mean short must be refused, with both counts named.
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

	if _, err := Restore(short, f.gen.Topology(), f.gen.Telemetry()); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("one train mean short: Restore = %v, want an error containing %q", err, want)
	}
}

// TestRestoreChecksFeatureNames pins that restore compares each forest's
// feature names, not their count, with the layout its vectors are built
// in: the routing forest's with the data source's, the CPD+ forest's with
// the layout of the datasets its parameters name. A CPD+ forest trained
// on one dataset more than its parameters list would read every broad
// vector as too short and answer its prior; a routing forest over the
// right number of features in another order would read each value as
// another feature.
func TestRestoreChecksFeatureNames(t *testing.T) {
	f := getFixture(t)
	pack, err := f.scout.SnapshotPack()
	if err != nil {
		t.Fatal(err)
	}
	edited := func(edit func(p *scoutParts)) []byte {
		p, err := decodeScoutpack(pack)
		if err != nil {
			t.Fatal(err)
		}
		edit(&p)
		data, err := assemblePack(p)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	names := slices.Clone(f.scout.fb.FeatureNames())
	slices.Reverse(names)
	d := mlcore.NewDataset(names)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		x := make([]float64, len(names))
		for j := range x {
			x[j] = rng.Float64()
		}
		d.MustAdd(mlcore.Sample{X: x, Y: x[0] > 0.5})
	}
	reversed, err := forest.Train(d, forest.Params{NumTrees: 2, Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		edit func(p *scoutParts)
		want string
	}{
		"CPD+ datasets one short": {func(p *scoutParts) {
			ds := p.meta.CPDParams.Datasets
			p.meta.CPDParams.Datasets = ds[:len(ds)-1]
		}, "-feature layout of datasets"},
		"routing features reordered": {func(p *scoutParts) { p.rf = reversed }, "does not match the data source's"},
	} {
		if _, err := Restore(edited(tc.edit), f.gen.Topology(), f.gen.Telemetry()); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Restore = %v, want an error containing %q", name, err, tc.want)
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
