package serving

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"scouts/internal/core"
)

// packFixture trains a scout and returns it with its scoutpack bytes.
func packFixture(t testing.TB) (*core.Scout, []byte) {
	t.Helper()
	gen, log, cfg := testEnv(t)
	scout, err := core.Train(core.TrainOptions{
		Config:    cfg,
		Topology:  gen.Topology(),
		Source:    gen.Telemetry(),
		Incidents: log.Incidents[:300],
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	pack, err := scout.SnapshotPack()
	if err != nil {
		t.Fatal(err)
	}
	return scout, pack
}

// TestSaveLoadPackRoundTrip pins the .pack disk format end to end: a
// scoutpack snapshot saves as model-%06d.pack, survives the load with its
// bytes intact, and the server serves predictions from it.
func TestSaveLoadPackRoundTrip(t *testing.T) {
	_, pack := packFixture(t)
	dir := t.TempDir()
	st := NewStore()
	st.Now = func() time.Time { return time.Unix(1700000000, 0) }
	st.Put("PhyNet", pack)
	if err := SaveStore(st, dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "model-000001.pack")); err != nil {
		t.Fatalf("pack snapshot did not save as .pack: %v", err)
	}
	loaded, rep, err := LoadStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Loaded) != 1 || len(rep.Quarantined) != 0 {
		t.Fatalf("report = %+v", rep)
	}
	m, ok := loaded.Latest()
	if !ok || m.Version != 1 || !bytes.Equal(m.Snapshot, pack) {
		t.Fatal("pack bytes did not survive the round trip")
	}
	if m.Team != "PhyNet" || !m.TrainedAt.Equal(time.Unix(1700000000, 0)) {
		t.Fatalf("pack metadata drifted: %+v", m)
	}

	gen, _, _ := testEnv(t)
	srv := NewServer(gen.Topology(), gen.Telemetry(), loaded, nil)
	if err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json",
		strings.NewReader(`{"title":"link down","body":"tor1.c1.dc1 reports link flaps","time":100}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict over pack-loaded model: status %d", resp.StatusCode)
	}
}

// TestPackPayloadVerifiedOnLoad pins load-time verification of the inner
// scoutpack: a .pack file whose payload checksum matches but whose
// scoutpack envelope is damaged quarantines instead of loading.
func TestPackPayloadVerifiedOnLoad(t *testing.T) {
	_, pack := packFixture(t)
	dir := t.TempDir()
	st := NewStore()
	st.Put("X", pack)
	if err := SaveStore(st, dir); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte AND refresh the envelope checksum, so only the
	// scoutpack's own sha256 can catch it.
	path := filepath.Join(dir, "model-000001.pack")
	damaged := append([]byte(nil), pack...)
	damaged[len(damaged)/2] ^= 0x01
	st2 := NewStore()
	st2.Put("X", damaged)
	if err := SaveStore(st2, dir); err != nil {
		t.Fatal(err)
	}
	_, rep, err := LoadStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) != 1 || !strings.Contains(rep.Quarantined[0].Reason, "scoutpack payload") {
		t.Fatalf("report = %+v, want a scoutpack-payload quarantine", rep)
	}
	if _, err := os.Stat(path + ".quarantined"); err != nil {
		t.Fatalf("damaged pack not set aside: %v", err)
	}
}

// TestLoadStoreOpensOnlyNewestHealthy pins the one load path: LoadStore
// walks the files newest first, quarantines a damaged one on the way, and
// stops once it holds DefaultEagerVersions healthy versions. An older
// file damaged after the save is neither read nor renamed.
func TestLoadStoreOpensOnlyNewestHealthy(t *testing.T) {
	dir := t.TempDir()
	st := NewStore()
	for i := 1; i <= 5; i++ {
		st.Put("X", testPack(strings.Repeat("s", i)))
	}
	if err := SaveStore(st, dir); err != nil {
		t.Fatal(err)
	}
	damageFile(t, filepath.Join(dir, "model-000005.pack"))
	path1 := filepath.Join(dir, "model-000001.pack")
	damageFile(t, path1)

	loaded, rep, err := LoadStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rep.Loaded, []int{3, 4}) || loaded.Versions() != 2 {
		t.Fatalf("loaded %v (%d held), want v3 and v4", rep.Loaded, loaded.Versions())
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0].Name != "model-000005.pack" || !rep.Quarantined[0].Renamed {
		t.Fatalf("quarantined %+v, want model-000005.pack alone", rep.Quarantined)
	}
	if m, ok := loaded.Latest(); !ok || m.Version != 4 || !bytes.Equal(m.Snapshot, testPack("ssss")) {
		t.Fatalf("latest = %+v", m)
	}
	if _, err := os.Stat(path1); err != nil {
		t.Fatalf("the damaged v1 was set aside, so it was read: %v", err)
	}
}

// TestReloadRecordsLoadStats pins the model-load observability pair
// under an injected clock: duration and bytes land in /metrics after a
// reload.
func TestReloadRecordsLoadStats(t *testing.T) {
	_, pack := packFixture(t)
	gen, _, _ := testEnv(t)
	st := NewStore()
	st.Put("PhyNet", pack)
	srv := NewServer(gen.Topology(), gen.Telemetry(), st, nil)
	// Stepping clock: every reading advances 250ms, so one Reload (two
	// readings) records exactly 0.25s.
	now := time.Unix(1700000000, 0)
	srv.Clock = func() time.Time {
		now = now.Add(250 * time.Millisecond)
		return now
	}
	if err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.Metrics().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	if !strings.Contains(body, "scout_model_load_duration_seconds 0.25") {
		t.Fatalf("load duration gauge missing or wrong:\n%s", grepMetric(body, "scout_model_load_duration_seconds"))
	}
	if !strings.Contains(body, "scout_model_bytes "+strconv.Itoa(len(pack))) {
		t.Fatalf("model bytes gauge wrong:\n%s", grepMetric(body, "scout_model_bytes"))
	}
}

// TestReloadRefusesJSONSnapshot pins that the server serves one format: a
// JSON snapshot published over a served scoutpack is refused with an
// error naming SnapshotPack, and the scoutpack's model keeps serving.
func TestReloadRefusesJSONSnapshot(t *testing.T) {
	scout, pack := packFixture(t)
	jsonSnap, err := scout.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	gen, log, _ := testEnv(t)
	st := NewStore()
	st.Put("PhyNet", pack)
	srv := NewServer(gen.Topology(), gen.Telemetry(), st, nil)
	if err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	served := srv.current.Load().scout
	st.Put("PhyNet", jsonSnap)
	if err := srv.Reload(); err == nil || !strings.Contains(err.Error(), "SnapshotPack") {
		t.Fatalf("reloading a JSON snapshot: %v, want an error naming SnapshotPack", err)
	}
	if m := srv.current.Load(); m.scout != served || m.version != 1 {
		t.Fatalf("a refused reload replaced the served model (now v%d)", m.version)
	}
	in := log.Incidents[400]
	if got, want := srv.current.Load().scout.PredictIncident(in), scout.PredictIncident(in); got.Verdict != want.Verdict || got.Confidence != want.Confidence || got.Explanation() != want.Explanation() {
		t.Fatalf("served model answers %+v, want %+v", got, want)
	}
}

// TestReloadStoreHook pins the /v1/reload -> directory re-read path: a
// version published to the store directory by another process is picked
// up by the HTTP reload without restarting the server.
func TestReloadStoreHook(t *testing.T) {
	_, pack := packFixture(t)
	dir := t.TempDir()
	seed := NewStore()
	seed.Put("PhyNet", pack)
	if err := SaveStore(seed, dir); err != nil {
		t.Fatal(err)
	}
	gen, _, _ := testEnv(t)
	first, _, err := LoadStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(gen.Topology(), gen.Telemetry(), first, nil)
	srv.ReloadStore = func() (*Store, error) {
		st, _, err := LoadStore(dir)
		return st, err
	}
	if err := srv.Reload(); err != nil {
		t.Fatal(err)
	}

	// Another process publishes v2 into the directory.
	pub := NewStore()
	pub.Put("PhyNet", pack)
	pub.Put("PhyNet", pack)
	if err := SaveStore(pub, dir); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status %d", resp.StatusCode)
	}
	var health struct {
		ModelVersion int `json:"model_version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.ModelVersion != 2 {
		t.Fatalf("served version after reload = %d, want 2", health.ModelVersion)
	}
}

// TestReloadFallsThroughDamagedVersions: a Reload over v1..v4 whose v4,
// v3 and v2 are damaged serves v1, and the load report names each of the
// three files with the reason it was refused.
func TestReloadFallsThroughDamagedVersions(t *testing.T) {
	_, pack := packFixture(t)
	dir := t.TempDir()
	pub := NewStore()
	for range 4 {
		pub.Put("PhyNet", pack)
	}
	if err := SaveStore(pub, dir); err != nil {
		t.Fatal(err)
	}
	var want []QuarantinedFile
	for _, v := range []int{4, 3, 2} {
		name := fmt.Sprintf("model-%06d.pack", v)
		damageFile(t, filepath.Join(dir, name))
		_, reason := loadModelFile(filepath.Join(dir, name), v)
		if reason == "" {
			t.Fatalf("the damaged v%d verifies", v)
		}
		want = append(want, QuarantinedFile{Name: name, Reason: reason, Renamed: true})
	}
	gen, _, _ := testEnv(t)
	srv := NewServer(gen.Topology(), gen.Telemetry(), NewStore(), nil)
	var rep *LoadReport
	srv.ReloadStore = func() (st *Store, err error) {
		st, rep, err = LoadStore(dir)
		return st, err
	}
	if err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	if got := srv.current.Load().version; got != 1 {
		t.Fatalf("served v%d, want v1", got)
	}
	if !slices.Equal(rep.Loaded, []int{1}) || !slices.Equal(rep.Quarantined, want) {
		t.Fatalf("load report %+v, want v1 loaded and %+v quarantined", rep, want)
	}
}

// TestReadModelFileRejectsDamage pins that ReadModelFile is a full
// verification pass, not a parse: a bit flip anywhere in a .pack file
// fails it.
func TestReadModelFileRejectsDamage(t *testing.T) {
	_, pack := packFixture(t)
	dir := t.TempDir()
	st := NewStore()
	st.Put("PhyNet", pack)
	if err := SaveStore(st, dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "model-000001.pack")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadModelFile(path); err == nil {
		t.Fatal("ReadModelFile accepted a damaged pack file")
	}
}

// grepMetric returns the lines of a scrape mentioning one metric, for
// readable failures.
func grepMetric(body, name string) string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, name) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
