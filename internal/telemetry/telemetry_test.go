package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestPrometheusGolden pins the exposition format byte for byte: stable
// metric names, families sorted by name, series sorted by label
// signature, sorted label keys, cumulative buckets with a +Inf terminal,
// no timestamps and no wall-clock values — the contract every scrape
// consumer (and the loadgen soak parser) relies on.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	// Registered deliberately out of render order.
	r.Gauge("scout_model_version", "Version of the served model.").Set(3)
	b := r.Counter("scout_http_requests_total", "Requests by endpoint and code.",
		L("endpoint", "/v1/predict"), L("code", "400"))
	a := r.Counter("scout_http_requests_total", "Requests by endpoint and code.",
		L("code", "200"), L("endpoint", "/v1/predict"))
	h := r.Histogram("scout_request_duration_seconds", "Latency.", []float64{0.001, 0.01, 0.1},
		L("endpoint", "/v1/predict"))
	r.GaugeFunc("scout_breaker_state", "Breaker state.", func() float64 { return 2 }, L("dataset", "pingmesh"))
	r.CounterFunc("scout_breaker_trips_total", "Breaker trips.", func() float64 { return 1 }, L("dataset", "pingmesh"))

	a.Add(2)
	b.Inc()
	h.Observe(0.0004)
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(7)

	want := strings.Join([]string{
		`# HELP scout_breaker_state Breaker state.`,
		`# TYPE scout_breaker_state gauge`,
		`scout_breaker_state{dataset="pingmesh"} 2`,
		`# HELP scout_breaker_trips_total Breaker trips.`,
		`# TYPE scout_breaker_trips_total counter`,
		`scout_breaker_trips_total{dataset="pingmesh"} 1`,
		`# HELP scout_http_requests_total Requests by endpoint and code.`,
		`# TYPE scout_http_requests_total counter`,
		`scout_http_requests_total{code="200",endpoint="/v1/predict"} 2`,
		`scout_http_requests_total{code="400",endpoint="/v1/predict"} 1`,
		`# HELP scout_model_version Version of the served model.`,
		`# TYPE scout_model_version gauge`,
		`scout_model_version 3`,
		`# HELP scout_request_duration_seconds Latency.`,
		`# TYPE scout_request_duration_seconds histogram`,
		`scout_request_duration_seconds_bucket{endpoint="/v1/predict",le="0.001"} 1`,
		`scout_request_duration_seconds_bucket{endpoint="/v1/predict",le="0.01"} 1`,
		`scout_request_duration_seconds_bucket{endpoint="/v1/predict",le="0.1"} 3`,
		`scout_request_duration_seconds_bucket{endpoint="/v1/predict",le="+Inf"} 4`,
		`scout_request_duration_seconds_sum{endpoint="/v1/predict"} 7.1004`,
		`scout_request_duration_seconds_count{endpoint="/v1/predict"} 4`,
		``,
	}, "\n")

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// Rendering must be idempotent: a scrape reads, never mutates.
	var again bytes.Buffer
	if err := r.WritePrometheus(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != buf.String() {
		t.Error("second scrape differs from the first with no observations in between")
	}
}

func TestServeHTTP(t *testing.T) {
	r := NewRegistry()
	r.Counter("scout_up_total", "Up.").Inc()
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != ContentType {
		t.Fatalf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "scout_up_total 1") {
		t.Fatalf("body missing series:\n%s", rec.Body.String())
	}
}

// TestHotPathZeroAlloc is the allocation guard on the instrumented
// serving path, one row per recording method: a counter bump, a gauge move
// and a histogram sample must not produce garbage, or the zero-alloc batch
// path regresses the moment it is observed.
func TestHotPathZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("scout_x_total", "x")
	g := r.Gauge("scout_g", "g")
	h := r.Histogram("scout_d_seconds", "d", nil)
	for _, row := range []struct {
		name string
		run  func()
	}{
		{"Counter.Inc", c.Inc},
		{"Counter.Add", func() { c.Add(2) }},
		{"Gauge.Set", func() { g.Set(4) }},
		{"Gauge.Add", func() { g.Add(-1) }},
		{"Histogram.Observe", func() { h.Observe(0.003) }},
		{"Histogram.ObserveDuration", func() { h.ObserveDuration(3 * time.Millisecond) }},
	} {
		if n := testing.AllocsPerRun(200, row.run); n != 0 {
			t.Errorf("%s allocates %.1f objects per call, want 0", row.name, n)
		}
	}
}

// TestConcurrentObserveAndScrape runs observers against scrapers under
// the race detector: the lock-free hot path and the locked render must
// coexist.
func TestConcurrentObserveAndScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("scout_x_total", "x")
	h := r.Histogram("scout_d_seconds", "d", nil)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.Inc()
				h.Observe(0.001)
			}
		}()
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var buf bytes.Buffer
				if err := r.WritePrometheus(&buf); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if c.Value() != 2000 || h.Count() != 2000 {
		t.Fatalf("lost updates: counter=%d histogram=%d", c.Value(), h.Count())
	}
}

func TestRegistrationConflictsPanic(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("scout_a_total", "a")
	mustPanic("duplicate series", func() { r.Counter("scout_a_total", "a") })
	mustPanic("kind conflict", func() { r.Gauge("scout_a_total", "a") })
	mustPanic("help conflict", func() { r.Counter("scout_a_total", "b", L("x", "y")) })
	mustPanic("bad name", func() { r.Counter("0bad", "x") })
	mustPanic("bad label key", func() { r.Counter("scout_b_total", "b", L("le", "y")) })
	mustPanic("bad buckets", func() { r.Histogram("scout_h", "h", []float64{1, 1}) })
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("scout_esc_total", "esc", L("path", "a\"b\\c\nd")).Inc()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `scout_esc_total{path="a\"b\\c\nd"} 1`
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("escaped series %q missing from:\n%s", want, buf.String())
	}
}

func TestRequestIDContext(t *testing.T) {
	ctx := context.Background()
	if RequestID(ctx) != "" {
		t.Fatal("empty context should carry no request ID")
	}
	ctx = WithRequestID(ctx, "inst-42")
	if got := RequestID(ctx); got != "inst-42" {
		t.Fatalf("RequestID = %q", got)
	}
}

// TestLoggerGolden pins the JSON-lines layout: "event" first, injected
// timestamp when a clock is set, base fields before call fields, field
// order preserved, every line valid JSON.
func TestLoggerGolden(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, F("component", "scoutd"))
	lg.Now = func() time.Time { return time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC) }
	lg.Log("http_request",
		F("request_id", "i-1"),
		F("status", 200),
		F("duration_ms", 1.5),
	)
	want := `{"event":"http_request","ts":"2026-08-08T12:00:00Z","component":"scoutd","request_id":"i-1","status":200,"duration_ms":1.5}` + "\n"
	if got := buf.String(); got != want {
		t.Errorf("log line:\n got %q\nwant %q", got, want)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("line is not valid JSON: %v", err)
	}
	// The same logger writes the next line whole after the first.
	lg.Log("x")
	if got := buf.String(); got != want+`{"event":"x","ts":"2026-08-08T12:00:00Z","component":"scoutd"}`+"\n" {
		t.Errorf("second line: log reads %q", got)
	}

	// No clock, no ts field; nil logger is a no-op.
	buf.Reset()
	NewLogger(&buf).Log("x")
	if got := buf.String(); got != `{"event":"x"}`+"\n" {
		t.Errorf("clockless line = %q", got)
	}
	var nilLogger *Logger
	nilLogger.Log("ignored", F("k", "v")) // must not panic
}
