package serving

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"scouts/internal/core"
	"scouts/internal/faults"
	"scouts/internal/telemetry"
)

// fakeClock hands out wall times advancing a fixed step per call, so
// every instrumented request observes exactly the same latency and the
// /metrics payload is fully deterministic.
type fakeClock struct {
	mu   sync.Mutex
	t    time.Time
	step time.Duration
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(c.step)
	return c.t
}

// TestMetricsEndpoint drives a trained server — over a breaker-wrapped
// source so the breaker series register — through a fixed request mix
// and pins the /metrics payload: exact per-endpoint request counters,
// exact histogram sums under the injected clock (no wall-clock leaks),
// model gauges, prediction counters and breaker state.
func TestMetricsEndpoint(t *testing.T) {
	gen, log, cfg := testEnv(t)
	store := NewStore()
	trainAndPut(t, store, core.TrainOptions{
		Config:    cfg,
		Topology:  gen.Topology(),
		Source:    gen.Telemetry(),
		Incidents: log.Incidents[:300],
		Seed:      1,
	})
	br := faults.NewBreaker(gen.Telemetry(), faults.BreakerParams{})
	srv := NewServer(gen.Topology(), br, store, nil)
	srv.Clock = (&fakeClock{t: time.Unix(0, 0), step: 5 * time.Millisecond}).Now
	var access bytes.Buffer
	srv.Access = telemetry.NewLogger(&access)
	if err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	do := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}
	in := log.Incidents[300]
	predictBody := `{"title":` + quoteJSON(in.Title) + `,"body":` + quoteJSON(in.Body) + `,"time":` + "1000" + `}`
	if rec := do("POST", "/v1/predict", predictBody); rec.Code != 200 {
		t.Fatalf("predict: %d %s", rec.Code, rec.Body.String())
	}
	if rec := do("POST", "/v1/predict", `{"bad`); rec.Code != 400 {
		t.Fatalf("malformed predict: %d", rec.Code)
	}
	if rec := do("GET", "/v1/health", ""); rec.Code != 200 {
		t.Fatalf("health: %d", rec.Code)
	}
	if rec := do("GET", "/nope", ""); rec.Code != 404 {
		t.Fatalf("catch-all: %d", rec.Code)
	}

	rec := do("GET", "/metrics", "")
	if rec.Code != 200 {
		t.Fatalf("/metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != telemetry.ContentType {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	body := rec.Body.String()

	// Exact series values: the injected clock steps 5ms per Clock() call
	// and instrument calls it twice per request, so every request records
	// exactly 0.005s. The /metrics request itself observes after
	// rendering, so it is absent from its own scrape.
	wantLines := []string{
		`scout_http_requests_total{code="200",endpoint="/v1/predict"} 1`,
		`scout_http_requests_total{code="400",endpoint="/v1/predict"} 1`,
		`scout_http_requests_total{code="200",endpoint="/v1/health"} 1`,
		`scout_http_requests_total{code="404",endpoint="other"} 1`,
		`scout_http_request_duration_seconds_sum{endpoint="/v1/predict"} 0.01`,
		`scout_http_request_duration_seconds_count{endpoint="/v1/predict"} 2`,
		`scout_model_version 1`,
		`scout_model_reloads_total 1`,
		`scout_http_requests_shed_total 0`,
		`scout_http_request_timeouts_total 0`,
		`scout_http_panics_recovered_total 0`,
	}
	for _, want := range wantLines {
		if !strings.Contains(body, want+"\n") {
			t.Errorf("metrics missing exact line %q", want)
		}
	}
	// Structural series: values depend on the model's answer, presence
	// does not.
	wantSeries := []string{
		`scout_predictions_total{model="rf"}`,
		`scout_predictions_total{model="cpd+"}`,
		`scout_prediction_fallbacks_total`,
		`scout_imputed_predictions_total`,
		`scout_breaker_state{dataset="`,
		`scout_dataset_available{dataset="`,
		`scout_breaker_trips_total{dataset="`,
		`scout_http_request_duration_seconds_bucket{endpoint="/v1/predict",le="+Inf"}`,
	}
	for _, want := range wantSeries {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing series %q", want)
		}
	}
	if strings.Contains(body, " NaN") || strings.Contains(body, "} -") {
		t.Error("metrics contain NaN or negative samples")
	}

	// One prediction was served; exactly one model counter moved.
	var predTotal int64
	for _, c := range srv.tel.predByModel {
		predTotal += c.Value()
	}
	predTotal += srv.tel.predOther.Value()
	if predTotal != 1 {
		t.Errorf("scout_predictions_total sums to %d, want 1", predTotal)
	}

	// The access log carries one line per request with the middleware's
	// request IDs, and no "ts" field (no clock was injected).
	lines := strings.Split(strings.TrimSpace(access.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("access log has %d lines, want 5:\n%s", len(lines), access.String())
	}
	for _, ln := range lines {
		if !strings.Contains(ln, `"request_id":"r`) {
			t.Errorf("access line lacks a request ID: %s", ln)
		}
		if strings.Contains(ln, `"ts":`) {
			t.Errorf("clockless access line carries a timestamp: %s", ln)
		}
	}
}

func quoteJSON(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// TestObserverZeroAlloc guards the PR 3 invariant at the seam the
// observer added: recording a prediction — the per-item work the batch
// scorer now does on every element — must not allocate, whatever the
// verdict, as long as no access logger is wired.
func TestObserverZeroAlloc(t *testing.T) {
	srv, _, _ := trainAndServe(t)
	ctx := context.Background()
	preds := []core.Prediction{
		{Verdict: core.VerdictResponsible, Model: "rf"},
		{Verdict: core.VerdictNotResponsible, Model: "cpd+", Health: core.DataHealth{ImputedSlots: 3, TotalSlots: 10}, HasHealth: true},
		{Verdict: core.VerdictFallback, Model: "none", Text: "degraded"},
		{Verdict: core.VerdictExcluded, Model: "exclude-rule"},
	}
	if n := testing.AllocsPerRun(200, func() {
		for i := range preds {
			srv.ObservePrediction(ctx, preds[i])
		}
	}); n != 0 {
		t.Fatalf("ObservePrediction allocates %.1f objects per run, want 0", n)
	}
}

// TestHTTPMetricsUnderConcurrency hammers the instrumented handler from
// many goroutines (run under -race in CI) and checks no sample is lost.
func TestHTTPMetricsUnderConcurrency(t *testing.T) {
	srv := NewServer(nil, nil, NewStore(), nil)
	h := srv.Handler()
	const workers, each = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/health", nil))
				if rec.Code != http.StatusServiceUnavailable {
					t.Errorf("health = %d, want 503 (no model)", rec.Code)
				}
			}
		}()
	}
	wg.Wait()
	var scrape strings.Builder
	if err := srv.Metrics().WritePrometheus(&scrape); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf(`scout_http_requests_total{code="503",endpoint="/v1/health"} %d`, workers*each),
		fmt.Sprintf(`scout_http_request_duration_seconds_count{endpoint="/v1/health"} %d`, workers*each),
	} {
		if !strings.Contains(scrape.String(), want+"\n") {
			t.Fatalf("scrape lacks %q", want)
		}
	}
}
