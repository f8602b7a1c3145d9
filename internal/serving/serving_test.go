package serving

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"scouts/internal/cloudsim"
	"scouts/internal/core"
	"scouts/internal/incident"
)

var (
	onceEnv sync.Once
	envGen  *cloudsim.Generator
	envLog  *incident.Log
	envCfg  *core.Config
	envErr  error
)

// errorBody decodes the spine's {"error": ...} envelope.
type errorBody struct {
	Error string `json:"error"`
}

func testEnv(t testing.TB) (*cloudsim.Generator, *incident.Log, *core.Config) {
	t.Helper()
	onceEnv.Do(func() {
		envGen = cloudsim.New(cloudsim.Params{Seed: 5, Days: 50, IncidentsPerDay: 8})
		envLog = envGen.Generate()
		envCfg, envErr = core.ParseConfig(core.DefaultPhyNetConfig)
	})
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envGen, envLog, envCfg
}

// trainAndPut trains a Scout and publishes its scoutpack to store, as
// scoutctl train does, returning the scout and the published version.
func trainAndPut(t testing.TB, store *Store, opt core.TrainOptions) (*core.Scout, int) {
	t.Helper()
	scout, err := core.Train(opt)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := scout.SnapshotPack()
	if err != nil {
		t.Fatal(err)
	}
	return scout, store.Put(scout.Team(), snap)
}

func trainAndServe(t testing.TB) (*Server, *Store, *core.Scout) {
	t.Helper()
	gen, log, cfg := testEnv(t)
	store := NewStore()
	scout, version := trainAndPut(t, store, core.TrainOptions{
		Config:    cfg,
		Topology:  gen.Topology(),
		Source:    gen.Telemetry(),
		Incidents: log.Incidents[:300],
		Seed:      1,
	})
	if version != store.Versions() {
		t.Fatalf("version %d, store has %d", version, store.Versions())
	}
	srv := NewServer(gen.Topology(), gen.Telemetry(), store, nil)
	if err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	return srv, store, scout
}

func TestSnapshotRoundTripAgreement(t *testing.T) {
	srv, _, scout := trainAndServe(t)
	_, log, _ := testEnv(t)
	restored := srv.current.Load().scout
	agree := 0
	n := 0
	for _, in := range log.Incidents[300:] {
		a := scout.PredictIncident(in)
		b := restored.PredictIncident(in)
		if !a.Usable() {
			continue
		}
		n++
		if a.Responsible == b.Responsible && a.Verdict == b.Verdict {
			agree++
		}
	}
	if n == 0 {
		t.Fatal("no usable predictions")
	}
	if agree != n {
		t.Fatalf("restored scout disagrees on %d/%d predictions", n-agree, n)
	}
}

func TestHealthAndModelEndpoints(t *testing.T) {
	srv, _, _ := trainAndServe(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("health status %d", resp.StatusCode)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" {
		t.Fatalf("health = %v", health)
	}

	resp2, err := http.Get(ts.URL + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var model map[string]any
	if err := json.NewDecoder(resp2.Body).Decode(&model); err != nil {
		t.Fatal(err)
	}
	if model["team"] != "PhyNet" {
		t.Fatalf("model = %v", model)
	}
}

func TestPredictEndpoint(t *testing.T) {
	srv, _, _ := trainAndServe(t)
	_, log, _ := testEnv(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	in := log.Incidents[len(log.Incidents)-10]
	body, _ := json.Marshal(PredictRequest{
		Title: in.Title, Body: in.Body, Components: in.Components, Time: in.CreatedAt,
	})
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("predict status %d", resp.StatusCode)
	}
	var pr PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if pr.Team != "PhyNet" || pr.ModelVersion != 1 {
		t.Fatalf("response: %+v", pr)
	}
	if pr.Verdict != "fallback" && pr.Recommendation == "" {
		t.Fatal("missing recommendation fine print")
	}
}

func TestPredictValidation(t *testing.T) {
	srv, _, _ := trainAndServe(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON should 400, got %d", resp.StatusCode)
	}

	empty, _ := json.Marshal(PredictRequest{})
	resp2, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(empty))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty request should 400, got %d", resp2.StatusCode)
	}
}

func TestServeBeforeLoad(t *testing.T) {
	gen, _, _ := testEnv(t)
	srv := NewServer(gen.Topology(), gen.Telemetry(), NewStore(), nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("want 503 before load, got %d", resp.StatusCode)
	}
	if err := srv.Reload(); err == nil {
		t.Fatal("reload from empty store should fail")
	}
}

func TestHotSwap(t *testing.T) {
	srv, store, _ := trainAndServe(t)
	gen, log, cfg := testEnv(t)
	_, v2 := trainAndPut(t, store, core.TrainOptions{
		Config: cfg, Topology: gen.Topology(), Source: gen.Telemetry(),
		Incidents: log.Incidents[:350], Seed: 2,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if int(health["model_version"].(float64)) != v2 {
		t.Fatalf("hot swap failed: %v (want v%d)", health, v2)
	}
}

func TestStoreVersioning(t *testing.T) {
	st := NewStore()
	if _, ok := st.Latest(); ok {
		t.Fatal("empty store should have no latest")
	}
	v1 := st.Put("PhyNet", []byte("a"))
	v2 := st.Put("PhyNet", []byte("b"))
	if v1 != 1 || v2 != 2 {
		t.Fatalf("versions %d %d", v1, v2)
	}
	if len(st.models) != 2 || string(st.models[0].Snapshot) != "a" {
		t.Fatalf("stored %+v, want v1 %q and v2", st.models, "a")
	}
	latest, _ := st.Latest()
	if string(latest.Snapshot) != "b" {
		t.Fatal("latest wrong")
	}
}
