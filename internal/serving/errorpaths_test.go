package serving

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
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
