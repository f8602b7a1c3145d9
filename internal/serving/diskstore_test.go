package serving

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"scouts/internal/core"
	"scouts/internal/section"
)

// testPack returns a structurally valid version-2 scoutpack (magic,
// version, sha256, META and FRST sections) whose META payload is body.
// The disk store verifies scoutpack headers and never builds a model from
// them, so these tests can tell versions apart without training one.
func testPack(body string) []byte {
	sections := section.Append(nil, "META", []byte(body))
	sections = section.Append(sections, "FRST", []byte("forest"))
	sum := sha256.Sum256(sections)
	pack := binary.LittleEndian.AppendUint32([]byte("SCPK"), 2)
	pack = append(pack, sum[:]...)
	return append(pack, sections...)
}

// damageFile cuts a file to half its length, as a torn write would.
func damageFile(t testing.TB, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestSaveLoadStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := NewStore()
	st.Put("PhyNet", testPack("one"))
	st.Put("PhyNet", testPack("two"))
	if err := SaveStore(st, dir); err != nil {
		t.Fatal(err)
	}
	loaded, rep, err := LoadStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Versions() != 2 || len(rep.Loaded) != 2 || len(rep.Quarantined) != 0 {
		t.Fatalf("versions = %d, report = %+v", loaded.Versions(), rep)
	}
	m, ok := loaded.Latest()
	if !ok || m.Version != 2 || !bytes.Equal(m.Snapshot, testPack("two")) || m.Team != "PhyNet" {
		t.Fatalf("v2 = %+v", m)
	}
}

// TestLoadStoreIgnoresForeignFiles: a name that is not model-%06d.pack
// (or a retired model-%06d.json) is not the store's, whatever it holds.
// It is neither loaded nor quarantined, and stays where it is. Each row
// puts one beside a healthy model-000001.pack; the last three hold a
// healthy v1 file under a name that only parses as a number.
func TestLoadStoreIgnoresForeignFiles(t *testing.T) {
	st := NewStore()
	st.Put("X", testPack("s"))
	v1, err := encodePackFile(Model{Version: 1, Team: "X", Snapshot: testPack("s")})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"README.txt", []byte("hi")},
		// A leftover temp file from a crashed save.
		{"model-000002.pack.tmp", []byte("half")},
		// A negative number: -1 would skip the name/version check.
		{"model--1.pack", v1},
		// Too few digits: v1 would load twice.
		{"model-1.pack", v1},
		{"model-+00001.pack", v1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := SaveStore(st, dir); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, tc.name), tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			loaded, rep, err := LoadStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			if loaded.Versions() != 1 || !slices.Equal(rep.Loaded, []int{1}) || len(rep.Quarantined) != 0 {
				t.Fatalf("versions = %d, report = %+v, want v1 alone", loaded.Versions(), rep)
			}
			if _, err := os.Stat(filepath.Join(dir, tc.name)); err != nil {
				t.Fatalf("the foreign file moved: %v", err)
			}
		})
	}
}

func TestLoadStoreToleratesGaps(t *testing.T) {
	dir := t.TempDir()
	st := NewStore()
	st.Put("X", testPack("a"))
	st.Put("X", testPack("b"))
	st.Put("X", testPack("c"))
	if err := SaveStore(st, dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "model-000002.pack")); err != nil {
		t.Fatal(err)
	}
	loaded, rep, err := LoadStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rep.Loaded, []int{1, 3}) || len(rep.Quarantined) != 0 {
		t.Fatalf("report %+v, want the 2 surviving files; the deleted v2 must not resurrect", rep)
	}
	if m, ok := loaded.Latest(); !ok || m.Version != 3 || !bytes.Equal(m.Snapshot, testPack("c")) {
		t.Fatalf("latest = %+v, %v", m, ok)
	}
	// Publishing into the gapped store continues after the highest version.
	if v := loaded.Put("X", testPack("d")); v != 4 {
		t.Fatalf("next version = %d, want 4", v)
	}
}

func TestLoadStoreQuarantinesCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	st := NewStore()
	st.Put("X", testPack("good-1"))
	st.Put("X", testPack("good-2"))
	st.Put("X", testPack("good-3"))
	if err := SaveStore(st, dir); err != nil {
		t.Fatal(err)
	}
	// v2: tamper with the payload, keeping the stale envelope checksum.
	path2 := filepath.Join(dir, "model-000002.pack")
	data, err := os.ReadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Replace(data, []byte("good-2"), []byte("evil-2"), 1)
	if bytes.Equal(tampered, data) {
		t.Fatal("tamper target not found in payload")
	}
	if err := os.WriteFile(path2, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	// v3: truncate mid-file (the torn-write case).
	path3 := filepath.Join(dir, "model-000003.pack")
	if err := os.WriteFile(path3, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	loaded, rep, err := LoadStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Versions() != 1 {
		t.Fatalf("versions = %d, want only the intact v1", loaded.Versions())
	}
	if len(rep.Quarantined) != 2 {
		t.Fatalf("quarantined = %+v, want 2 entries", rep.Quarantined)
	}
	for _, q := range rep.Quarantined {
		if q.Reason == "" || !q.Renamed {
			t.Fatalf("quarantine entry incomplete: %+v", q)
		}
		if _, err := os.Stat(filepath.Join(dir, q.Name+".quarantined")); err != nil {
			t.Fatalf("quarantined file not set aside: %v", err)
		}
	}
	// The corrupt files are out of the way: a reload sees only good data.
	again, rep2, err := LoadStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if again.Versions() != 1 || len(rep2.Quarantined) != 0 {
		t.Fatalf("second load: versions = %d, report = %+v", again.Versions(), rep2)
	}
}

// TestLoadStoreAllDamagedIsEmpty: a store whose every file is damaged
// holds nothing, however many files there are — one more than LoadStore
// holds is no different from one — so a server over it trains afresh.
func TestLoadStoreAllDamagedIsEmpty(t *testing.T) {
	dir := t.TempDir()
	st := NewStore()
	for v := 1; v <= DefaultEagerVersions+1; v++ {
		st.Put("X", testPack(fmt.Sprintf("v%d", v)))
	}
	if err := SaveStore(st, dir); err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= DefaultEagerVersions+1; v++ {
		damageFile(t, filepath.Join(dir, fmt.Sprintf("model-%06d.pack", v)))
	}
	loaded, rep, err := LoadStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Versions() != 0 || len(rep.Loaded) != 0 || len(rep.Quarantined) != DefaultEagerVersions+1 {
		t.Fatalf("versions = %d, report = %+v, want every file quarantined", loaded.Versions(), rep)
	}
	if m, ok := loaded.Latest(); ok {
		t.Fatalf("latest = v%d from a store of damaged files", m.Version)
	}
}

// TestPutNeverReusesQuarantinedVersion: a version published into a store
// loaded around damaged files is numbered past every one of them — those
// this load quarantines, and those an earlier load set aside.
func TestPutNeverReusesQuarantinedVersion(t *testing.T) {
	for _, tc := range []struct {
		name    string
		damaged []int
	}{
		{"newest damaged", []int{2}},
		{"all damaged", []int{1, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st := NewStore()
			st.Put("X", testPack("a"))
			st.Put("X", testPack("b"))
			if err := SaveStore(st, dir); err != nil {
				t.Fatal(err)
			}
			for _, v := range tc.damaged {
				damageFile(t, filepath.Join(dir, fmt.Sprintf("model-%06d.pack", v)))
			}
			// The second load finds the damaged files already renamed.
			for load := 1; load <= 2; load++ {
				loaded, rep, err := LoadStore(dir)
				if err != nil {
					t.Fatal(err)
				}
				if got := loaded.Put("X", testPack("c")); got != 3 {
					t.Fatalf("load %d (report %+v): Put numbered v%d, want v3", load, rep, got)
				}
			}
		})
	}
}

func TestLoadStoreQuarantinesVersionMismatch(t *testing.T) {
	dir := t.TempDir()
	st := NewStore()
	st.Put("X", testPack("a"))
	if err := SaveStore(st, dir); err != nil {
		t.Fatal(err)
	}
	// Rename v1's file to claim v7: the envelope still says version 1.
	if err := os.Rename(filepath.Join(dir, "model-000001.pack"), filepath.Join(dir, "model-000007.pack")); err != nil {
		t.Fatal(err)
	}
	loaded, rep, err := LoadStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Versions() != 0 || len(rep.Quarantined) != 1 {
		t.Fatalf("versions = %d, report = %+v", loaded.Versions(), rep)
	}
	if !strings.Contains(rep.Quarantined[0].Reason, "claims v7") {
		t.Fatalf("reason = %q", rep.Quarantined[0].Reason)
	}
}

// TestLoadStoreQuarantinesScoutpackV1: a store file whose scoutpack says
// version 1 — with both checksums sealed over the patched bytes, as a
// version-1 writer would have left them — is quarantined, and the reason
// names the version. No version-1 reader is kept.
func TestLoadStoreQuarantinesScoutpackV1(t *testing.T) {
	dir := t.TempDir()
	snap := testPack("a")
	file, err := encodePackFile(Model{Version: 1, Team: "X", Snapshot: snap})
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(file[len(file)-len(snap)+4:], 1) // the scoutpack's version field
	if err := os.WriteFile(filepath.Join(dir, "model-000001.pack"), sealPackFile(file), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, rep, err := LoadStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Versions() != 0 || len(rep.Quarantined) != 1 {
		t.Fatalf("versions = %d, report = %+v", loaded.Versions(), rep)
	}
	if reason := rep.Quarantined[0].Reason; !strings.Contains(reason, "scoutpack version 1 not supported") {
		t.Fatalf("reason = %q, want it to name scoutpack version 1", reason)
	}
}

func TestLoadStoreMissingDir(t *testing.T) {
	if _, _, err := LoadStore(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("missing directory should error")
	}
}

func TestSaveStoreEmptyOK(t *testing.T) {
	dir := t.TempDir()
	if err := SaveStore(NewStore(), dir); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := LoadStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Versions() != 0 {
		t.Fatal("expected empty store")
	}
}

// TestSaveStoreWritesOnlyNewVersions: a publish — a store holding the
// versions it saved or loaded, plus the one it adds — writes the added
// version's file and touches no other. Through the recording fake, the
// second save issues no operation on model-000001.pack; in a real
// directory, a store loaded from it, given a version and saved back, leaves
// model-000001.pack its inode.
func TestSaveStoreWritesOnlyNewVersions(t *testing.T) {
	fs := &crashFS{failAt: -1, state: fsState{live: map[string]int{}, durable: map[string]int{}}}
	st := NewStore()
	st.Put("PhyNet", testPack("one"))
	if err := saveStore(fs, st, "store"); err != nil {
		t.Fatal(err)
	}
	first := len(fs.ops)
	st.Put("PhyNet", testPack("two"))
	if err := saveStore(fs, st, "store"); err != nil {
		t.Fatal(err)
	}
	second := fs.ops[first:]
	var touched []string
	for _, op := range second {
		if strings.Contains(op, "model-000001") {
			touched = append(touched, op)
		}
	}
	if len(touched) > 0 {
		t.Errorf("the second save issued %q on model-000001.pack, which the first one wrote", touched)
	}
	if !slices.Contains(second, "rename model-000002.pack.tmp model-000002.pack") {
		t.Errorf("the second save did not commit model-000002.pack: %q", second)
	}

	dir := t.TempDir()
	v1 := filepath.Join(dir, "model-000001.pack")
	st = NewStore()
	st.Put("PhyNet", testPack("one"))
	if err := SaveStore(st, dir); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(v1)
	if err != nil {
		t.Fatal(err)
	}
	st, _, err = LoadStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.Put("PhyNet", testPack("two"))
	if err := SaveStore(st, dir); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(v1)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) {
		t.Error("the publish replaced model-000001.pack")
	}
}

// TestSaveStoreReplacesForeignFile: a store that neither loaded nor saved
// a version's file replaces it, so a new store saved over a directory
// holding another v1 leaves its own v1 there.
func TestSaveStoreReplacesForeignFile(t *testing.T) {
	dir := t.TempDir()
	stale := NewStore()
	stale.Put("PhyNet", testPack("stale"))
	if err := SaveStore(stale, dir); err != nil {
		t.Fatal(err)
	}
	st := NewStore()
	st.Put("PhyNet", testPack("fresh"))
	if err := SaveStore(st, dir); err != nil {
		t.Fatal(err)
	}
	got, err := ReadModelFile(filepath.Join(dir, "model-000001.pack"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Snapshot, testPack("fresh")) {
		t.Error("the new store's v1 did not replace the v1 another store saved")
	}
}

// TestSaveStorePartialFailureStillDurable: a save that fails midway
// (here: a v2 that is not a scoutpack) must still return an error, AND
// the versions committed before the failure must remain present and
// loadable. That those renames are also durable — the deferred directory
// sync runs on the error path too — is TestSaveStoreCrashConsistency's to
// show: a real directory cannot crash.
func TestSaveStorePartialFailureStillDurable(t *testing.T) {
	dir := t.TempDir()
	st := NewStore()
	st.Put("PhyNet", testPack("one"))
	// v2 fails the save after v1 has already been written and renamed.
	st.Put("PhyNet", []byte("not a scoutpack"))

	if err := SaveStore(st, dir); err == nil {
		t.Fatal("SaveStore should fail on the non-scoutpack v2")
	}
	if _, err := os.Stat(filepath.Join(dir, "model-000001.pack")); err != nil {
		t.Fatalf("v1 should be committed despite the later failure: %v", err)
	}
	loaded, _, err := LoadStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := loaded.Latest(); !ok || m.Version != 1 || !bytes.Equal(m.Snapshot, testPack("one")) {
		t.Fatalf("v1 not loadable after partial save: %+v", m)
	}
}

// TestSaveStoreRejectsNonPack pins the one-format rule on the write side:
// a store holding anything but a scoutpack (here the in-memory JSON
// snapshot form) does not save — the error names the version and the
// call that produces what the directory holds — and the versions before
// it are still committed.
func TestSaveStoreRejectsNonPack(t *testing.T) {
	dir := t.TempDir()
	st := NewStore()
	st.Put("X", testPack("one"))
	st.Put("X", []byte(`{"config":"..."}`))
	err := SaveStore(st, dir)
	if err == nil || !strings.Contains(err.Error(), "v2") || !strings.Contains(err.Error(), "SnapshotPack") {
		t.Fatalf("SaveStore = %v, want an error naming v2 and SnapshotPack", err)
	}
	entries, rerr := os.ReadDir(dir)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(entries) != 1 || entries[0].Name() != "model-000001.pack" {
		t.Fatalf("directory holds %v, want only model-000001.pack", entries)
	}
}

// TestLoadStoreQuarantinesStrayJSON pins the read side: a model-N.json
// left by the retired JSON disk format is never loaded — not even when no
// pack exists for its version — and never silently skipped: it is set
// aside and reported with its reason.
func TestLoadStoreQuarantinesStrayJSON(t *testing.T) {
	dir := t.TempDir()
	st := NewStore()
	st.Put("X", testPack("one"))
	if err := SaveStore(st, dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"model-000001.json", "model-000002.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(`{"checksum":"sha256:00","model":{}}`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loaded, rep, err := LoadStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Versions() != 1 || len(rep.Loaded) != 1 || len(rep.Quarantined) != 2 {
		t.Fatalf("versions = %d, report = %+v", loaded.Versions(), rep)
	}
	for _, q := range rep.Quarantined {
		if !strings.Contains(q.Reason, "JSON store file") || !q.Renamed {
			t.Fatalf("stray JSON entry = %+v", q)
		}
		if _, err := os.Stat(filepath.Join(dir, q.Name+".quarantined")); err != nil {
			t.Fatalf("stray JSON not set aside: %v", err)
		}
	}
	if _, err := ReadModelFile(filepath.Join(dir, "model-000002.json.quarantined")); err == nil {
		t.Fatal("ReadModelFile accepted a JSON store file")
	}
}

// sealPackFile rewrites the checksums a writer would have computed over a
// mutated .pack file: the inner scoutpack's sha256 first, then the
// envelope meta's "sha256:<hex>" over the payload, in place. Without it
// nearly every mutation dies at a checksum compare and the fuzzer never
// reaches what lies behind one. The copy's capacity is its length, so a
// read past the end panics even where reslicing up to the capacity would
// not.
func sealPackFile(data []byte) []byte {
	out := slices.Clip(bytes.Clone(data))
	if len(out) < 8 {
		return out
	}
	metaLen := binary.LittleEndian.Uint32(out[4:])
	if uint64(metaLen) > uint64(len(out)-8) {
		return out
	}
	meta, payload := out[8:8+metaLen], out[8+metaLen:]
	if core.IsScoutpack(payload) && len(payload) >= 8+sha256.Size {
		sum := sha256.Sum256(payload[8+sha256.Size:])
		copy(payload[8:], sum[:])
	}
	if i := bytes.Index(meta, []byte("sha256:")); i >= 0 && len(meta)-i-len("sha256:") >= 2*sha256.Size {
		sum := sha256.Sum256(payload)
		hex.Encode(meta[i+len("sha256:"):], sum[:])
	}
	return out
}

// FuzzPackFile holds the .pack store-file decoder (decodePackFile, behind
// LoadStore and ReadModelFile) to: never panic on any bytes; whatever it
// accepts carries a scoutpack that verifies, re-encodes, and encode →
// decode → encode is a fixed point; and a flipped payload byte under the
// old checksums is always quarantined. Every input is re-sealed first.
// The committed corpus (testdata/fuzz/FuzzPackFile) replays under plain
// `go test`.
func FuzzPackFile(f *testing.F) {
	file, err := encodePackFile(Model{
		Version: 3, Team: "PhyNet",
		TrainedAt: time.Date(2020, 8, 10, 12, 0, 0, 5, time.FixedZone("", 3600)),
		Snapshot:  testPack(`{"config":"TEAM PhyNet;"}`),
	})
	if err != nil {
		f.Fatal(err)
	}
	if _, reason := decodePackFile(file, 3); reason != "" {
		f.Fatalf("the seed file is quarantined: %s", reason)
	}
	f.Add(file)
	f.Add([]byte(packEnvelopeMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		data = sealPackFile(data)
		m, reason := decodePackFile(data, -1)
		if reason != "" {
			return
		}
		if err := core.VerifyScoutpack(m.Snapshot); err != nil {
			t.Fatalf("accepted a file whose payload does not verify: %v", err)
		}
		enc, err := encodePackFile(m)
		if err != nil {
			t.Fatalf("an accepted model does not re-encode: %v", err)
		}
		back, reason := decodePackFile(enc, m.Version)
		if reason != "" {
			t.Fatalf("an accepted model's own file is quarantined: %s", reason)
		}
		if back.Team != m.Team || !back.TrainedAt.Equal(m.TrainedAt) || !bytes.Equal(back.Snapshot, m.Snapshot) {
			t.Fatalf("re-encoding changed the model: %+v, then %+v", m, back)
		}
		again, err := encodePackFile(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, again) {
			t.Fatal("encode -> decode -> encode is not a fixed point")
		}
		torn := bytes.Clone(data)
		torn[len(torn)-1] ^= 0x01
		if _, reason := decodePackFile(torn, -1); reason == "" {
			t.Fatal("a flipped payload byte under the old checksums was accepted")
		}
	})
}

// TestFuzzCorpusReaches pins the quarantine reason each committed
// FuzzPackFile input reaches, by file name, after the re-seal the fuzz
// target applies. A format change that leaves an input stopping at an
// earlier check fails here instead of quietly turning the corpus into
// noise.
func TestFuzzCorpusReaches(t *testing.T) {
	want := map[string]string{
		"meta_len_overruns_file": "pack envelope meta length overruns file",
		"payload_not_scoutpack":  "scoutpack payload: core: not a scoutpack",
	}
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzPackFile", "*"))
	if err != nil || len(paths) != len(want) {
		t.Fatalf("committed corpus %v (%v), want one file per row of %v", paths, err, want)
	}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		header, value, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		quoted, ok := strings.CutPrefix(value, "[]byte(")
		data, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
		if header != "go test fuzz v1" || !ok || err != nil {
			t.Fatalf("%s: not a one-value []byte corpus file (%v)", p, err)
		}
		name := filepath.Base(p)
		substr, ok := want[name]
		if !ok {
			t.Errorf("%s: committed input has no row", name)
			continue
		}
		if _, reason := decodePackFile(sealPackFile([]byte(data)), -1); !strings.Contains(reason, substr) {
			t.Errorf("%s: quarantine reason %q, want one containing %q", name, reason, substr)
		}
	}
}
