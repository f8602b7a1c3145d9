package main

import (
	"encoding/json"
	"maps"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"scouts/internal/cloudsim"
	"scouts/internal/core"
	"scouts/internal/faults"
	"scouts/internal/serving"
	"scouts/internal/telemetry"
)

// newTestServer trains a model on the seed-5 corpus world and serves it
// from an in-process httptest server, over breaker-wrapped telemetry as
// cmd/scoutd does.
func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	gen := cloudsim.New(cloudsim.Params{Seed: 5, Days: 30, IncidentsPerDay: 6})
	trace := gen.Generate()
	cfg, err := core.ParseConfig(core.DefaultPhyNetConfig)
	if err != nil {
		t.Fatal(err)
	}
	store := serving.NewStore()
	tr := &serving.Trainer{Store: store}
	if _, _, err := tr.TrainAndPublish(core.TrainOptions{
		Config: cfg, Topology: gen.Topology(), Source: gen.Telemetry(),
		Incidents: trace.Incidents, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	source := faults.NewBreaker(gen.Telemetry(), faults.BreakerParams{})
	srv := serving.NewServer(gen.Topology(), source, store, nil)
	if err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestLoadgenSmoke drives runLoad — the whole tool minus flag parsing —
// against an in-process httptest server in both modes. This is the `make
// ci` smoke: it proves the generator's request encoding, both endpoints
// and the report math still fit together, without timing anything.
func TestLoadgenSmoke(t *testing.T) {
	ts := newTestServer(t)
	reqs := corpus(5, 30, 6)
	if len(reqs) == 0 {
		t.Fatal("empty corpus")
	}
	for _, mode := range []string{"single", "batch"} {
		rep, err := runLoad(ts.Client(), ts.URL, mode, 8, 2, 300*time.Millisecond, reqs)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if rep.Errors != 0 {
			t.Fatalf("%s: %d request errors", mode, rep.Errors)
		}
		if rep.Requests == 0 || rep.QPS <= 0 {
			t.Fatalf("%s: no throughput recorded: %+v", mode, rep)
		}
		if rep.P50Ms <= 0 || rep.P99Ms < rep.P50Ms {
			t.Fatalf("%s: implausible latency summary: %+v", mode, rep)
		}
		if mode == "batch" && rep.Predictions != rep.Requests*8 {
			t.Fatalf("batch: predictions=%d requests=%d", rep.Predictions, rep.Requests)
		}
		if _, err := json.Marshal(rep); err != nil {
			t.Fatalf("%s: report not JSON-encodable: %v", mode, err)
		}
	}

	if _, err := runLoad(ts.Client(), ts.URL, "bogus", 8, 1, time.Millisecond, reqs); err == nil {
		t.Fatal("unknown mode should error")
	}
}

// TestLoadgenChaos is the `make ci` chaos smoke: adversarial traffic —
// malformed JSON, 2 MiB bodies, mid-body disconnects — must come back as
// orderly 2xx/4xx answers or client-side aborts. A single 5xx means a
// handler crashed or leaked an internal error; that fails the build.
func TestLoadgenChaos(t *testing.T) {
	ts := newTestServer(t)
	reqs := corpus(5, 30, 6)
	rep, err := runChaos(ts.Client(), ts.URL, 2, 400*time.Millisecond, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 || rep.ChaosRequests == 0 || rep.Disconnects == 0 {
		t.Fatalf("chaos run too quiet: %+v", rep)
	}
	if rep.StatusCounts["200"] == 0 {
		t.Fatalf("valid requests stopped succeeding under chaos: %+v", rep.StatusCounts)
	}
	if rep.ChaosStatusCounts["400"] == 0 && rep.ChaosStatusCounts["413"] == 0 {
		t.Fatalf("malformed/oversized requests were not rejected: %+v", rep.ChaosStatusCounts)
	}
	// The accounting split: adversarial responses must not leak into the
	// control-group numbers. The rotation sends non-disconnect chaos
	// traffic only to 4xx-producing cases, so any 400/413 in the control
	// histogram — or any 200 among the chaos statuses — is a misfile.
	if rep.StatusCounts["400"] != 0 || rep.StatusCounts["413"] != 0 {
		t.Fatalf("adversarial rejections leaked into StatusCounts: %+v", rep.StatusCounts)
	}
	if rep.ChaosStatusCounts["200"] != 0 {
		t.Fatalf("well-formed responses leaked into ChaosStatusCounts: %+v", rep.ChaosStatusCounts)
	}
	// Latency and QPS describe only the control group: every latency
	// sample came from a 200 and Requests counts control traffic alone.
	if rep.Predictions != rep.StatusCounts["200"] {
		t.Fatalf("latency samples (%d) != control 200s (%d)", rep.Predictions, rep.StatusCounts["200"])
	}
	wantReqs := 0
	for _, n := range rep.StatusCounts {
		wantReqs += n
	}
	if rep.Requests != wantReqs {
		t.Fatalf("Requests=%d, want sum of control statuses %d", rep.Requests, wantReqs)
	}
	for _, counts := range []map[string]int{rep.StatusCounts, rep.ChaosStatusCounts} {
		for code, n := range counts {
			if n > 0 && code >= "500" && code <= "599" {
				t.Fatalf("unexpected server error %s (%d of them): %+v", code, n, counts)
			}
		}
	}
	if rep.Errors != 0 {
		t.Fatalf("%d unexpected transport errors (disconnects are tracked separately)", rep.Errors)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("report not JSON-encodable: %v", err)
	}
	if !json.Valid(out) {
		t.Fatal("report JSON invalid")
	}
}

// TestLoadgenSoak is the `make ci` soak smoke: a ~2s sustained run
// against an in-process server with sub-second /metrics scrapes. It
// proves the scrape parser understands the server's exposition, the
// server-side counters land in the report, and the SLO verdict math
// fires in both directions.
func TestLoadgenSoak(t *testing.T) {
	ts := newTestServer(t)
	reqs := corpus(5, 30, 6)
	slo := SLO{P99Ms: 60_000, MaxErrorRate: 0.01} // generous: the smoke tests plumbing, not speed
	// A batch pass first, then the single pass the rest of the test reads:
	// four concurrent clients over the one breaker, and every item of a
	// batch scored in parallel under it.
	br, err := runSoak(ts.Client(), ts.URL, "batch", 8, 4, 1500*time.Millisecond, 200*time.Millisecond, slo, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if br.Mode != "soak-batch" || br.Requests == 0 || br.Errors != 0 || br.Predictions != br.Requests*8 {
		t.Fatalf("batch soak drove no clean traffic: %+v", br.Report)
	}
	sr, err := runSoak(ts.Client(), ts.URL, "single", 0, 4, 1500*time.Millisecond, 200*time.Millisecond, slo, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Mode != "soak-single" {
		t.Fatalf("mode = %q", sr.Mode)
	}
	if sr.Requests == 0 || sr.Errors != 0 {
		t.Fatalf("soak drove no clean traffic: %+v", sr.Report)
	}
	if sr.Scrapes < 3 {
		t.Fatalf("only %d scrapes in a 1.5s run at 200ms", sr.Scrapes)
	}
	if sr.ScrapeErrors != 0 {
		t.Fatalf("%d scrape errors", sr.ScrapeErrors)
	}
	// The final scrape must carry the server's view of the run, and the
	// server must have counted at least as many predict requests as the
	// client got answers for (the server also sees the scrape traffic).
	served := sr.Metrics[`scout_http_requests_total{code="200",endpoint="/v1/predict"}`]
	if int(served) < sr.Requests {
		t.Fatalf("server counted %.0f predict 200s, client saw %d", served, sr.Requests)
	}
	for _, want := range []string{
		"scout_model_version",
		"scout_http_panics_recovered_total",
		`scout_http_request_duration_seconds_count{endpoint="/v1/predict"}`,
	} {
		if _, ok := sr.Metrics[want]; !ok {
			t.Fatalf("final scrape missing %q; have %v", want, metricNames(sr.Metrics))
		}
	}
	if sr.Metrics[`scout_http_request_duration_seconds_count{endpoint="/v1/predict"}`] < served {
		t.Fatal("latency histogram undercounts the predict endpoint")
	}
	// The telemetry is healthy, so concurrency alone must not look like an
	// outage: no breaker opened and no prediction rested on imputed means.
	gates, trips := 0, 0.0
	for name, v := range sr.Metrics {
		if strings.HasPrefix(name, "scout_breaker_trips_total{") {
			gates++
			trips += v
		}
	}
	if gates == 0 {
		t.Fatalf("final scrape carries no scout_breaker_trips_total series; have %v", metricNames(sr.Metrics))
	}
	if imputed := sr.Metrics["scout_imputed_predictions_total"]; trips != 0 || imputed != 0 {
		t.Fatalf("healthy telemetry under 4 clients: %.0f breaker trips over %d datasets, %.0f imputed predictions", trips, gates, imputed)
	}
	if !sr.SLO.Pass || len(sr.SLO.Violations) != 0 {
		t.Fatalf("soak verdict failed: %+v", sr.SLO)
	}
	if sr.SLO.ErrorRate != 0 {
		t.Fatalf("error rate %.4f, want 0", sr.SLO.ErrorRate)
	}
	if _, err := json.Marshal(sr); err != nil {
		t.Fatalf("report not JSON-encodable: %v", err)
	}

	// The verdict must also fail honestly: an impossible latency SLO
	// flips Pass off and names the violation.
	strict := judge(SLO{P99Ms: 0.000001, MaxErrorRate: 0}, &sr)
	if strict.Pass || len(strict.Violations) == 0 {
		t.Fatalf("impossible SLO passed: %+v", strict)
	}
}

// TestParseProm pins the scrape parser against a hand-built exposition.
func TestParseProm(t *testing.T) {
	m, err := parseProm(`# HELP x y
# TYPE x counter
x 3
scout_d_bucket{endpoint="/p",le="0.1"} 4
scout_d_sum{endpoint="/p"} 1.5
scout_d_count{endpoint="/p"} 4
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 3 {
		t.Fatalf("parsed %d series, want 3 (buckets dropped): %v", len(m), metricNames(m))
	}
	if m["x"] != 3 || m[`scout_d_sum{endpoint="/p"}`] != 1.5 {
		t.Fatalf("bad values: %v", m)
	}
	if _, err := parseProm("not a metric line"); err == nil {
		t.Fatal("garbage should not parse")
	}
	if _, err := parseProm("# only comments\n"); err == nil {
		t.Fatal("empty payload should error")
	}
}

// FuzzParseProm: the scrape parser reads what a registry writes. For any
// label key the telemetry registry accepts and any label value, every
// non-bucket sample WritePrometheus renders — a counter, a gauge, a
// histogram's _sum and _count — parses back under its exact series
// signature with its value, and no bucket does. Arbitrary text never
// panics the parser.
func FuzzParseProm(f *testing.F) {
	f.Add("handle", "x", int64(3), "")
	f.Add("endpoint", `ends with le=`, int64(-7), "x 1\n")
	f.Add("k", "a \"b\"\\ \n c", int64(1<<53+1), `y{le="0.1" 2`)
	escape := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	f.Fuzz(func(t *testing.T, key, value string, n int64, text string) {
		_, _ = parseProm(text)

		reg := telemetry.NewRegistry()
		registered := func() (ok bool) {
			defer func() { ok = recover() == nil }() // a key telemetry refuses
			label := telemetry.L(key, value)
			reg.Counter("scout_c", "a counter", label).Add(n)
			reg.Gauge("scout_g", "a gauge", label).Set(n)
			reg.Histogram("scout_h", "a histogram", nil, label).ObserveDuration(time.Duration(n))
			return true
		}()
		if !registered {
			return
		}
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		got, err := parseProm(b.String())
		if err != nil {
			t.Fatalf("parsing the registry's own exposition: %v\n%s", err, b.String())
		}
		sig := "{" + key + `="` + escape.Replace(value) + `"}`
		want := map[string]float64{
			"scout_c" + sig:       float64(n),
			"scout_g" + sig:       float64(n),
			"scout_h_sum" + sig:   float64(n) / 1e9,
			"scout_h_count" + sig: 1,
		}
		if !maps.Equal(got, want) {
			t.Fatalf("parsed %v, want %v from\n%s", got, want, b.String())
		}
	})
}

// metricNames returns a scrape's series keys, sorted, for a failure
// message.
func metricNames(m map[string]float64) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	slices.Sort(names)
	return names
}
