package serving

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
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
	m, ok := loaded.Get(1)
	if !ok || !bytes.Equal(m.Snapshot, pack) {
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

// TestLoadStoreLazyVersions pins the eager/lazy split: only the newest
// DefaultEagerVersions files are read at load time; older versions are
// registered by path, materialize on first Get, and quarantine on first
// Get when their file is damaged.
func TestLoadStoreLazyVersions(t *testing.T) {
	dir := t.TempDir()
	st := NewStore()
	for i := 1; i <= 5; i++ {
		st.Put("X", testPack(strings.Repeat("s", i)))
	}
	if err := SaveStore(st, dir); err != nil {
		t.Fatal(err)
	}

	loaded, rep, err := LoadStore(dir) // 2 eager
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rep.Loaded); got != 2 {
		t.Fatalf("eager loads = %v, want the newest 2", rep.Loaded)
	}
	if got := len(rep.Lazy); got != 3 {
		t.Fatalf("lazy registrations = %v, want 3", rep.Lazy)
	}
	if loaded.Versions() != 5 {
		t.Fatalf("versions = %d, want all 5 visible", loaded.Versions())
	}
	// Latest never touches the lazy files.
	if m, ok := loaded.Latest(); !ok || m.Version != 5 || !bytes.Equal(m.Snapshot, testPack("sssss")) {
		t.Fatalf("latest = %+v", m)
	}

	// Damage v1 on disk AFTER the load: an eager loader would have caught
	// it already; the lazy path must catch it on first Get.
	path1 := filepath.Join(dir, "model-000001.pack")
	data, err := os.ReadFile(path1)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path1, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := loaded.Get(1); ok {
		t.Fatal("damaged lazy version must not load")
	}
	q := loaded.QuarantinedLazy()
	if len(q) != 1 || q[0].Reason == "" || !q[0].Renamed {
		t.Fatalf("lazy quarantine report = %+v", q)
	}
	if _, err := os.Stat(path1 + ".quarantined"); err != nil {
		t.Fatalf("damaged file not set aside: %v", err)
	}
	if loaded.Versions() != 4 {
		t.Fatalf("versions after quarantine = %d, want 4", loaded.Versions())
	}
	// A healthy lazy version materializes on first Get and stays cached.
	m, ok := loaded.Get(2)
	if !ok || !bytes.Equal(m.Snapshot, testPack("ss")) || m.Team != "X" {
		t.Fatalf("lazy v2 = %+v, %v", m, ok)
	}
	if err := os.Remove(filepath.Join(dir, "model-000002.pack")); err != nil {
		t.Fatal(err)
	}
	if m, ok := loaded.Get(2); !ok || !bytes.Equal(m.Snapshot, testPack("ss")) {
		t.Fatalf("materialized v2 must not re-read its file: %+v, %v", m, ok)
	}
	if drained := loaded.QuarantinedLazy(); len(drained) != 0 {
		t.Fatalf("quarantine report must drain: %+v", drained)
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
	served := srv.Scout()
	st.Put("PhyNet", jsonSnap)
	if err := srv.Reload(); err == nil || !strings.Contains(err.Error(), "SnapshotPack") {
		t.Fatalf("reloading a JSON snapshot: %v, want an error naming SnapshotPack", err)
	}
	if m := srv.current.Load(); m.scout != served || m.version != 1 {
		t.Fatalf("a refused reload replaced the served model (now v%d)", m.version)
	}
	in := log.Incidents[400]
	if got, want := srv.Scout().PredictIncident(in), scout.PredictIncident(in); got.Verdict != want.Verdict || got.Confidence != want.Confidence || got.Explanation != want.Explanation {
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

// TestReloadLogsLazyQuarantine: a Reload whose Latest falls through a
// damaged lazily registered version quarantines that file, and the
// server's log names it with its reason, as scoutd's log names the eager
// quarantines from LoadReport.
func TestReloadLogsLazyQuarantine(t *testing.T) {
	_, pack := packFixture(t)
	dir := t.TempDir()
	pub := NewStore()
	for range 4 {
		pub.Put("PhyNet", pack)
	}
	if err := SaveStore(pub, dir); err != nil {
		t.Fatal(err)
	}
	// v4 and v3 are read eagerly, v2 lazily; v1 is the one healthy file.
	for _, v := range []int{4, 3, 2} {
		path := filepath.Join(dir, fmt.Sprintf("model-%06d.pack", v))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, reason := loadModelFile(filepath.Join(dir, "model-000002.pack"), 2)
	if reason == "" {
		t.Fatal("the damaged v2 verifies")
	}
	gen, _, _ := testEnv(t)
	var logged bytes.Buffer
	srv := NewServer(gen.Topology(), gen.Telemetry(), NewStore(), log.New(&logged, "", 0))
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
	if len(rep.Quarantined) != 2 || len(rep.Lazy) != 2 {
		t.Fatalf("load report %+v, want v4 and v3 quarantined eagerly and v2, v1 lazy", rep)
	}
	for _, l := range strings.Split(logged.String(), "\n") {
		if strings.Contains(l, "model-000002.pack") && strings.Contains(l, reason) {
			return
		}
	}
	t.Fatalf("log does not name the lazily quarantined model-000002.pack with its reason %q:\n%s", reason, logged.String())
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
