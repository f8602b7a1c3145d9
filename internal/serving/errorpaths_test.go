package serving

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"scouts/internal/faults"
)

// TestErrorResponsesAreJSON pins the error-path contract end to end:
// EVERY non-200 the serving layer emits — bad JSON, unknown fields,
// missing fields, oversized bodies, oversized batches, unrouted paths,
// no-model 503s — is a decodable JSON object with a non-empty "error"
// and Content-Type: application/json. http.TimeoutHandler violated this
// (its body was content-sniffed to text/plain); this table keeps any
// future error path honest.
func TestErrorResponsesAreJSON(t *testing.T) {
	srv, _, _ := trainAndServe(t)
	h := srv.Handler()

	empty := NewServer(nil, nil, NewStore(), nil) // no model loaded
	emptyH := empty.Handler()

	bigTitle := strings.Repeat("x", maxPredictBody+1)
	manyItems := `{"items":[` + strings.TrimSuffix(strings.Repeat(`{"title":"t","time":1},`, MaxBatchItems+1), ",") + `]}`

	cases := []struct {
		name       string
		handler    http.Handler
		method     string
		path       string
		body       string
		wantStatus int
	}{
		{"malformed JSON", h, "POST", "/v1/predict", `{"title":`, 400},
		{"unknown field", h, "POST", "/v1/predict", `{"title":"t","time":1,"nope":true}`, 400},
		{"missing time", h, "POST", "/v1/predict", `{"title":"t"}`, 400},
		{"negative time", h, "POST", "/v1/predict", `{"title":"t","time":-1}`, 400},
		{"oversized body", h, "POST", "/v1/predict", `{"title":"` + bigTitle + `","time":1}`, 413},
		{"empty batch", h, "POST", "/v1/predict:batch", `{"items":[]}`, 400},
		{"oversized batch", h, "POST", "/v1/predict:batch", manyItems, 413},
		{"unrouted path", h, "GET", "/nope", "", 404},
		{"method mismatch", h, "GET", "/v1/predict", "", 404},
		{"no model health", emptyH, "GET", "/v1/health", "", 503},
		{"no model predict", emptyH, "POST", "/v1/predict", `{"title":"t","time":1}`, 503},
		{"empty store reload", emptyH, "POST", "/v1/reload", "", 503},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
			rec := httptest.NewRecorder()
			tc.handler.ServeHTTP(rec, req)
			if rec.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body: %s)", rec.Code, tc.wantStatus, rec.Body.String())
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type = %q, want application/json", ct)
			}
			if rid := rec.Header().Get("X-Request-Id"); rid == "" {
				t.Fatal("error response carries no X-Request-Id")
			}
			var eb errorBody
			if err := json.NewDecoder(rec.Body).Decode(&eb); err != nil {
				t.Fatalf("body is not a JSON error object: %v\n%s", err, rec.Body.String())
			}
			if eb.Error == "" {
				t.Fatalf("%d response has an empty error message", rec.Code)
			}
		})
	}
}

// TestSheddingResponseIsJSON saturates MaxInFlight through the full
// handler chain and checks the 429 contract (JSON body, Retry-After).
func TestSheddingResponseIsJSON(t *testing.T) {
	srv := NewServer(nil, nil, NewStore(), nil)
	srv.MaxInFlight = 1
	block := make(chan struct{})
	entered := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/hold", func(w http.ResponseWriter, _ *http.Request) {
		close(entered)
		<-block
		w.WriteHeader(http.StatusOK)
	})
	srv.inflight = make(chan struct{}, srv.MaxInFlight)
	h := srv.withRequestID(srv.web.Recover(srv.withShedding(mux)))
	ts := httptest.NewServer(h)
	defer ts.Close()

	errc := make(chan error, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/hold")
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	<-entered

	resp, err := http.Get(ts.URL + "/hold")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error == "" {
		t.Fatalf("429 body not a JSON error: %v", err)
	}
	if got := srv.tel.shed.Value(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}
	close(block)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestRequestIDsAreUnique pins the ID scheme: every response carries an
// X-Request-Id, IDs never repeat, and the instance prefix shows up.
func TestRequestIDsAreUnique(t *testing.T) {
	srv := NewServer(nil, nil, NewStore(), nil)
	srv.InstanceID = "scoutd-test"
	h := srv.Handler()
	seen := map[string]bool{}
	for i := 0; i < 10; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/health", nil))
		rid := rec.Header().Get("X-Request-Id")
		if rid == "" {
			t.Fatalf("request %d: no X-Request-Id", i)
		}
		if !strings.HasPrefix(rid, "scoutd-test-") {
			t.Fatalf("request ID %q lacks the instance prefix", rid)
		}
		if seen[rid] {
			t.Fatalf("request ID %q repeated", rid)
		}
		seen[rid] = true
	}
}

// answerWithin serves one request on its own goroutine and fails the test
// if no answer comes back in time: the defect it guards against is a
// handler that never returns.
func answerWithin(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
	}()
	select {
	case <-done:
		return rec
	case <-time.After(5 * time.Second):
		t.Fatalf("POST %s %s: no answer after 5s", path, body)
		return nil
	}
}

// breakerTrips sums scout_breaker_trips_total over every dataset.
func breakerTrips(t *testing.T, h http.Handler) float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	sum, series := 0.0, 0
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if !strings.HasPrefix(line, "scout_breaker_trips_total{") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("scrape line %q: %v", line, err)
		}
		sum += v
		series++
	}
	if series == 0 {
		t.Fatal("/metrics carries no scout_breaker_trips_total series")
	}
	return sum
}

// TestFarFutureTimeIsRefused: a trigger time past MaxTriggerTime answers
// 400 at once — alone, and as a per-item error inside a batch whose other
// items are scored — and pulls no monitoring, so no dataset's breaker
// trips. Past about 9.2·10^17 hours the monitoring windows' tick index
// overflowed and a pull never ended: the handler kept its MaxInFlight
// slot for good. MaxTriggerTime itself is served.
func TestFarFutureTimeIsRefused(t *testing.T) {
	gen, log, _ := testEnv(t)
	_, store, _ := trainAndServe(t)
	srv := NewServer(gen.Topology(), faults.NewBreaker(gen.Telemetry(), faults.BreakerParams{}), store, nil)
	srv.MaxInFlight, srv.RequestTimeout = 64, 10*time.Second
	if err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	in := log.Incidents[300]
	item := func(at string) string {
		return `{"title":` + quoteJSON(in.Title) + `,"body":` + quoteJSON(in.Body) + `,"time":` + at + `}`
	}
	const msg = "time exceeds the largest trigger time, 1e9 model hours"
	t.Run("single", func(t *testing.T) {
		for _, at := range []string{"1.0000000000000002e9", "1e17", "1e19", "1e300", "1.7976931348623157e308"} {
			rec := answerWithin(t, h, "/v1/predict", item(at))
			var eb struct{ Error string }
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); rec.Code != http.StatusBadRequest || err != nil || eb.Error != msg {
				t.Fatalf("time %s: %d %s, want 400 %q", at, rec.Code, rec.Body.String(), msg)
			}
		}
		if rec := answerWithin(t, h, "/v1/predict", item("1e9")); rec.Code != http.StatusOK {
			t.Fatalf("time 1e9: %d %s", rec.Code, rec.Body.String())
		}
	})
	t.Run("batch item", func(t *testing.T) {
		rec := answerWithin(t, h, "/v1/predict:batch", `{"items":[`+item("1000")+`,`+item("1e19")+`,`+item("1e9")+`]}`)
		var resp BatchPredictResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != http.StatusOK || err != nil || len(resp.Results) != 3 {
			t.Fatalf("batch: %d %s", rec.Code, rec.Body.String())
		}
		for i, r := range resp.Results {
			if refused := i == 1; refused != (r.Error == msg) || refused == (r.Prediction != nil) {
				t.Fatalf("batch item %d: %+v", i, r)
			}
		}
	})
	if trips := breakerTrips(t, h); trips != 0 {
		t.Fatalf("%v breaker trips", trips)
	}
}
