package httpx

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"scouts/internal/allocgate"
	"scouts/internal/telemetry"
)

func testSpine(endpoints ...string) (*Spine, *telemetry.Registry) {
	reg := telemetry.NewRegistry()
	return New(reg, "scout_test_http", endpoints, log.New(io.Discard, "", 0)), reg
}

func scrape(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestPanicIsCountedAndAnswered pins the panic contract of a mounted
// spine — Recover over a Mux — whether the handler panics before or after
// it wrote a header: the request is counted as a 500 (never as the 200 a
// bare status capture would report), the panic counter moves, and a panic
// that had written nothing is answered with the JSON 500 envelope.
func TestPanicIsCountedAndAnswered(t *testing.T) {
	sp, reg := testSpine("/early", "/late")
	mux := sp.Mux(time.Now, nil)
	mux.Handle("GET /early", "/early", http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("before the header")
	}))
	mux.Handle("GET /late", "/late", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		panic("after the header")
	}))
	h := sp.Recover(mux)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/early", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panic before the header answered %d, want 500", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
	var eb errorBody
	if err := json.NewDecoder(rec.Body).Decode(&eb); err != nil || eb.Error == "" {
		t.Fatalf("500 body is not the error envelope (%v): %s", err, rec.Body.String())
	}

	// The status line is already on the wire; the accounting still says 500.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/late", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("panic after the header: recorded status %d, want the 200 already sent", rec.Code)
	}

	got := scrape(t, reg)
	for _, want := range []string{
		`scout_test_http_requests_total{code="500",endpoint="/early"} 1`,
		`scout_test_http_requests_total{code="200",endpoint="/early"} 0`,
		`scout_test_http_requests_total{code="500",endpoint="/late"} 1`,
		`scout_test_http_requests_total{code="200",endpoint="/late"} 0`,
		`scout_test_http_panics_recovered_total 2`,
	} {
		if !strings.Contains(got, want+"\n") {
			t.Errorf("scrape lacks %q", want)
		}
	}
}

// TestAbortHandlerIsReRaised: http.ErrAbortHandler is net/http control
// flow, not a bug — Recover must pass it on uncounted.
func TestAbortHandlerIsReRaised(t *testing.T) {
	sp, _ := testSpine()
	h := sp.Recover(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { panic(http.ErrAbortHandler) }))
	defer func() {
		if rec := recover(); rec != http.ErrAbortHandler {
			t.Fatalf("recovered %v, want http.ErrAbortHandler", rec)
		}
		if n := sp.panics.Value(); n != 0 {
			t.Fatalf("abort counted as %d recovered panic(s)", n)
		}
	}()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
}

// TestUndeclaredEndpointPanicsAtRegistration: a route whose series were
// never registered would serve unobserved requests; that is a wiring bug
// caught when the mux is built, not at request time.
func TestUndeclaredEndpointPanicsAtRegistration(t *testing.T) {
	sp, _ := testSpine("/known")
	defer func() {
		if recover() == nil {
			t.Fatal("Handle accepted an endpoint the spine never registered")
		}
	}()
	sp.Mux(time.Now, nil).Handle("GET /typo", "/typo", http.NotFoundHandler())
}

// discard is the cheapest possible ResponseWriter, so the pin below counts
// the spine's allocations and not a recorder's.
type discard struct{ h http.Header }

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) Write(p []byte) (int, error) { return len(p), nil }
func (d *discard) WriteHeader(int)             {}

// TestMuxAllocs pins the per-request cost of a 200 through Mux +
// WriteJSON.
func TestMuxAllocs(t *testing.T) {
	sp, _ := testSpine("/v1/health")
	mux := sp.Mux(time.Now, nil)
	mux.Handle("GET /v1/health", "/v1/health", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		sp.WriteJSON(w, http.StatusOK, errorBody{Error: "x"})
	}))
	req := httptest.NewRequest("GET", "/v1/health", nil)
	w := &discard{h: http.Header{}}
	allocgate.Check(t, "httpx.Mux", 2, func() { mux.ServeHTTP(w, req) })
}

// strictTarget is a request shape with the kinds of field the daemons
// decode: strings, a number, a list and a nested object.
type strictTarget struct {
	Title  string   `json:"title"`
	Time   float64  `json:"time"`
	Items  []string `json:"items,omitempty"`
	Nested *struct {
		N int `json:"n"`
	} `json:"nested,omitempty"`
}

// FuzzDecodeStrict: a request body is bytes a client chose. Whatever they
// are, the strict decoder does not panic. Whatever it accepts within the
// cap, json.Unmarshal — which refuses data after the value — accepts too,
// into a reflect.DeepEqual value, and what it refuses there answers 400.
// Over the cap it answers 413 or — a streaming read settles the first
// value's fate as soon as it can — the very 400 the bytes before the cap
// get on their own.
func FuzzDecodeStrict(f *testing.F) {
	const limit = 64
	for _, body := range []string{
		`{"title":"t","time":1} trailing`,
		`{"title":"t","time":1}{}`,
		"{\"title\":\"t\",\"time\":1} \r\n\t",
		`{"title":"t","time":1,"nope":true}`,
		`{"title":"t","items":["a","b"],"nested":{"n":3}}`,
		`{"title":"` + strings.Repeat("x", limit) + `"}`,
		`{"title":"t"}` + strings.Repeat(" ", limit),
		strings.Repeat("0", limit+1), // a complete, wrong-typed value before the cap
		`null`, `[]`, `{} ]`, ``,
	} {
		f.Add([]byte(body))
	}
	sp, _ := testSpine()
	f.Fuzz(func(t *testing.T, body []byte) {
		var got strictTarget
		rec := httptest.NewRecorder()
		accepted := sp.Decode(rec, httptest.NewRequest("POST", "/", bytes.NewReader(body)), limit, &got)
		status, answer := rec.Code, rec.Body.String()

		if len(body) > limit {
			if accepted {
				t.Fatalf("a %d-byte body passed a %d-byte cap", len(body), limit)
			}
			if status == http.StatusRequestEntityTooLarge {
				return
			}
			prefix := httptest.NewRecorder()
			sp.Decode(prefix, httptest.NewRequest("POST", "/", bytes.NewReader(body[:limit])), limit, new(strictTarget))
			if status != http.StatusBadRequest || prefix.Code != status || prefix.Body.String() != answer {
				t.Fatalf("Decode answered %d %q over the cap; the bytes before it alone get %d %q",
					status, answer, prefix.Code, prefix.Body.String())
			}
			return
		}
		if !accepted {
			if status != http.StatusBadRequest {
				t.Fatalf("a refused body within the cap answered %d, want 400", status)
			}
			return
		}
		var want strictTarget
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatalf("accepted %q, which json.Unmarshal refuses: %v", body, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q decoded as %+v, json.Unmarshal says %+v", body, got, want)
		}
	})
}
