package gateway

// Fleet acceptance tests: a real trained Scout served by several
// serving.Server replicas behind the gateway. These pin the two
// headline guarantees of the resilient-fleet PR:
//
//  1. Bit-identity — a verdict fetched through the gateway is the same
//     bytes as asking a replica directly, at any fleet size.
//  2. Kill tolerance — losing a replica mid-burst costs zero non-shed
//     client requests: everything is answered 200 (or an explicit 429
//     shed), never a 5xx or transport error.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scouts/internal/cloudsim"
	"scouts/internal/core"
	"scouts/internal/incident"
	"scouts/internal/serving"
)

var (
	onceFleet sync.Once
	fleetGen  *cloudsim.Generator
	fleetLog  *incident.Log
	fleetTank *serving.Store
	fleetErr  error
)

// fleetEnv trains one Scout and publishes it to a shared store; every
// replica reloads the same snapshot, which is what makes bit-identity a
// meaningful claim.
func fleetEnv(t testing.TB) (*cloudsim.Generator, *incident.Log, *serving.Store) {
	t.Helper()
	onceFleet.Do(func() {
		fleetGen = cloudsim.New(cloudsim.Params{Seed: 5, Days: 50, IncidentsPerDay: 8})
		fleetLog = fleetGen.Generate()
		cfg, err := core.ParseConfig(core.DefaultPhyNetConfig)
		if err != nil {
			fleetErr = err
			return
		}
		scout, err := core.Train(core.TrainOptions{
			Config:    cfg,
			Topology:  fleetGen.Topology(),
			Source:    fleetGen.Telemetry(),
			Incidents: fleetLog.Incidents[:300],
			Seed:      1,
		})
		if err != nil {
			fleetErr = err
			return
		}
		snap, err := scout.SnapshotPack()
		if err != nil {
			fleetErr = err
			return
		}
		fleetTank = serving.NewStore()
		fleetTank.Put(scout.Team(), snap)
	})
	if fleetErr != nil {
		t.Fatal(fleetErr)
	}
	return fleetGen, fleetLog, fleetTank
}

// newScoutReplica starts one real scoutd-equivalent replica serving the
// shared snapshot.
func newScoutReplica(t testing.TB) *httptest.Server {
	t.Helper()
	gen, _, store := fleetEnv(t)
	srv := serving.NewServer(gen.Topology(), gen.Telemetry(), store, nil)
	if err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	return httptest.NewServer(srv.Handler())
}

func fleetPayloads(t testing.TB, n int) [][]byte {
	t.Helper()
	_, log, _ := fleetEnv(t)
	if len(log.Incidents) < 300+n {
		t.Fatalf("simulation too small: %d incidents", len(log.Incidents))
	}
	payloads := make([][]byte, 0, n)
	for _, in := range log.Incidents[300 : 300+n] {
		b, err := json.Marshal(serving.PredictRequest{
			Title: in.Title, Body: in.Body, Components: in.Components, Time: in.CreatedAt,
		})
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, b)
	}
	return payloads
}

func postRaw(t testing.TB, client *http.Client, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func TestGatewayVerdictsBitIdenticalToDirectReplica(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a real scout")
	}
	direct := newScoutReplica(t)
	defer direct.Close()
	var fleet []*httptest.Server
	for i := 0; i < 3; i++ {
		ts := newScoutReplica(t)
		defer ts.Close()
		fleet = append(fleet, ts)
	}
	g := newTestGateway(t, Config{
		Replicas: []ReplicaConfig{
			{Name: "r0", Team: "phynet", URL: fleet[0].URL},
			{Name: "r1", Team: "phynet", URL: fleet[1].URL},
			{Name: "r2", Team: "phynet", URL: fleet[2].URL},
		},
	})
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	client := &http.Client{}
	for i, payload := range fleetPayloads(t, 30) {
		wantStatus, want := postRaw(t, client, direct.URL+"/v1/predict", payload)
		gotStatus, got := postRaw(t, client, gw.URL+"/v1/predict", payload)
		if gotStatus != wantStatus {
			t.Fatalf("payload %d: gateway status %d, direct replica %d", i, gotStatus, wantStatus)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("payload %d: gateway verdict differs from direct replica\n gw: %s\ndir: %s", i, got, want)
		}
	}
}

func TestFleetSurvivesReplicaKillMidBurst(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a real scout")
	}
	var fleet []*httptest.Server
	for i := 0; i < 3; i++ {
		fleet = append(fleet, newScoutReplica(t))
	}
	defer fleet[0].Close()
	defer fleet[2].Close()
	// fleet[1] is killed mid-burst below.

	g := newTestGateway(t, Config{
		Replicas: []ReplicaConfig{
			{Name: "r0", Team: "phynet", URL: fleet[0].URL},
			{Name: "r1", Team: "phynet", URL: fleet[1].URL},
			{Name: "r2", Team: "phynet", URL: fleet[2].URL},
		},
		MaxAttempts: 3,
		RetryBase:   5 * time.Millisecond, RetryMax: 100 * time.Millisecond,
		ReplicaBudget: 64,
		HedgeAfter:    50 * time.Millisecond,
	})
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	// Baseline truth: what each payload's verdict must look like.
	client := &http.Client{}
	payloads := fleetPayloads(t, 40)
	want := make(map[int][]byte, len(payloads))
	for i, p := range payloads {
		status, body := postRaw(t, client, fleet[0].URL+"/v1/predict", p)
		if status != http.StatusOK {
			t.Fatalf("baseline payload %d answered %d", i, status)
		}
		want[i] = body
	}

	const rounds = 5 // every payload asked 5 times: 200 requests across the kill
	type job struct{ round, idx int }
	jobs := make(chan job, rounds*len(payloads))
	for r := 0; r < rounds; r++ {
		for i := range payloads {
			jobs <- job{r, i}
		}
	}
	close(jobs)

	var wrong, failed, shed atomic.Int64
	var killOnce sync.Once
	var done atomic.Int64
	total := int64(rounds * len(payloads))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wc := &http.Client{}
			for j := range jobs {
				// Kill replica r1 once a third of the burst has completed:
				// in-flight requests to it die mid-connection, later ones get
				// connection refused — both must be absorbed by failover.
				if done.Load() > total/3 {
					killOnce.Do(func() {
						fleet[1].CloseClientConnections()
						fleet[1].Close()
					})
				}
				status, body := postRaw(t, wc, gw.URL+"/v1/predict", payloads[j.idx])
				switch {
				case status == http.StatusOK:
					if !bytes.Equal(body, want[j.idx]) {
						wrong.Add(1)
					}
				case status == http.StatusTooManyRequests:
					shed.Add(1) // explicit shed: allowed, counted separately
				default:
					failed.Add(1)
					t.Errorf("round %d payload %d: status %d body %s", j.round, j.idx, status, body)
				}
				done.Add(1)
			}
		}()
	}
	wg.Wait()

	if n := failed.Load(); n != 0 {
		t.Fatalf("%d non-shed requests failed across the replica kill", n)
	}
	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d verdicts differed from the single-replica baseline", n)
	}
	if n := shed.Load(); n > total/10 {
		t.Fatalf("%d/%d requests shed — the fleet had headroom for this burst", n, total)
	}
	// The kill must have been visible to the resilience machinery: the
	// dead replica's breaker opened (or it at least recorded errors).
	errs := g.tel.replica("r1").outcome("error").Value()
	if errs == 0 {
		t.Fatal("replica kill left no trace in the gateway's upstream metrics")
	}
	t.Logf("burst done: shed=%d r1_errors=%d r1_breaker=%s retries={r0:%d r1:%d r2:%d}",
		shed.Load(), errs, g.replicas["r1"].breaker.State(),
		g.tel.replica("r0").retries.Value(), g.tel.replica("r1").retries.Value(), g.tel.replica("r2").retries.Value())
}
