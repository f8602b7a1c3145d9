//go:build !race

package serving

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"scouts/internal/core"
)

// TestBatchHandlerAllocations pins what one 32-item /v1/predict:batch
// costs in allocations, handler in, recorder out, in steady state: 64 a
// request on each of three bodies, two an item — Scout.predict 1 (the
// registry copy the health report reads off a source without a health
// view, as this bare simulator is; the component array is cut from a
// block made once in hundreds of names, and the explanation's signals
// travel in the answer and are appended into it), the item's share of the
// request (one string arena, one list arena, the slices and the envelope)
// and of the fan-out, one allocation a worker (GOMAXPROCS is 2 for the
// measure). The ceiling is the measure plus ½, so one allocation more a
// request fails it; a ceiling of 3 an item let 32 more pass. It was 2.0–2.1
// an item while the fan-out made 4; 3.1 while the explanation was a
// string; 5.1 while Scout.predict joined the text and made each component
// array; 15.1–15.3 while each string and list of the request was an
// allocation of its own, Scout.predict made 8 and the recommendation was a
// string; 19.3 while encoding/json's reflection decoded the request and
// walked a PredictResponse built for it; and 119 before the answer path
// stopped formatting and ranking. The measure is the least of a few
// rounds: a GC that empties a pool can raise a round, never lower one. (A
// non-race file: the race detector makes sync.Pool drop items at random.)
func TestBatchHandlerAllocations(t *testing.T) {
	const batchSize = 32
	const bodies, measure = 3, 64 // a request's allocations, on each body
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	srv, _, _ := trainAndServe(t)
	h := srv.Handler()
	var batches [][]byte
	for reqs := heldOutRequests(t); len(reqs) >= batchSize && len(batches) < bodies; reqs = reqs[batchSize:] {
		body, err := json.Marshal(BatchPredictRequest{Items: reqs[:batchSize]})
		if err != nil {
			t.Fatal(err)
		}
		batches = append(batches, body)
	}
	if len(batches) != bodies {
		t.Fatalf("%d batch bodies, want %d", len(batches), bodies)
	}
	rd := bytes.NewReader(nil)
	for i, body := range batches {
		allocs := leastAllocs(10, func() {
			rd.Reset(body)
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/predict:batch", rd))
			if w.Code != 200 {
				t.Fatalf("status %d: %s", w.Code, w.Body.String())
			}
		})
		t.Logf("batch %d: %.0f allocations a request, %.2f an item", i, allocs, allocs/batchSize)
		if allocs > measure+0.5 {
			t.Errorf("batch %d: %.0f allocations a request, ceiling %.1f", i, allocs, measure+0.5)
		}
	}
}

// leastAllocs is the least of five testing.AllocsPerRun rounds of f: a GC
// that empties a pool can raise a round, never lower one.
func leastAllocs(runs int, f func()) float64 {
	least := testing.AllocsPerRun(runs, f)
	for range 4 {
		least = min(least, testing.AllocsPerRun(runs, f))
	}
	return least
}

// TestRecommendationAllocations: the §8 fine print, usable answer or
// fallback, is appended into the caller's buffer without allocating (it
// allocated the string it returned until it was rendered straight into
// the answer).
func TestRecommendationAllocations(t *testing.T) {
	usable := core.Prediction{Verdict: core.VerdictResponsible, Responsible: true, Confidence: 0.93, Components: make([]string, 12)}
	fallback := core.Prediction{Verdict: core.VerdictFallback}
	buf := make([]byte, 0, 512)
	for _, c := range []struct {
		name string
		p    *core.Prediction
	}{{"usable", &usable}, {"fallback", &fallback}} {
		if got := testing.AllocsPerRun(100, func() { buf = appendRecommendation(buf[:0], "PhyNet", c.p) }); got != 0 {
			t.Errorf("the recommendation of a %s answer: %v allocations, want 0", c.name, got)
		}
	}
}

// TestPredictHandlerAllocations pins what one /v1/predict costs through
// the whole Handler() chain — shedding and the deadline armed, as scoutd
// runs it — recorder and test request included (scoutbench's
// serving.handler_allocs): 28 by request over these eight. The request's
// record is its context, pooled, and carries the ID and the deadline, so
// the spine makes one request copy, the ID and its header value
// (TestRequestSpineAllocations); the answer appends the explanation. A
// context.WithTimeout per request, its request copy, a request-ID context
// and its copy, an ID concatenated from a formatted number and the
// explanation as a string cost 35–36, mean 35.75; the joined text and a component array per answer 37–38, mean
// 37.75; the deadline watchdog registered with context.AfterFunc (its own
// context, the registration and two closures), the request ID boxed into
// a context.WithValue and the mux's status writer made per request 45–46,
// mean 45.75; a string and a list per request field, Scout.predict's 8,
// the answer moved to the heap by the observer, the recommendation's
// string and a Content-Type slice per answer 54–57, mean 56; encoding/json's
// reflection — the request's decoder, the PredictResponse built for its
// encoder — 65–71, mean 67.75; and the deadline guard's goroutine, channel
// and per-request buffer 67–73 before that. The ceiling is the mean plus a
// half, so one allocation more per request exceeds it.
func TestPredictHandlerAllocations(t *testing.T) {
	const requests, budget = 8, 28.5
	srv, _, _ := trainAndServe(t)
	srv.MaxInFlight, srv.RequestTimeout = 64, 10*time.Second
	h := srv.Handler()
	rd := bytes.NewReader(nil)
	total := 0.0
	for i, req := range heldOutRequests(t)[:requests] {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			rd.Reset(body)
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/predict", rd))
			if w.Code != 200 {
				t.Fatalf("status %d: %s", w.Code, w.Body.String())
			}
		})
		t.Logf("request %d: %.0f allocations", i, allocs)
		total += allocs
	}
	if mean := total / requests; mean > budget {
		t.Errorf("%.2f allocations per /v1/predict, budget %.2f", mean, budget)
	}
}

// TestRequestSpineAllocations pins what the hardening chain itself costs
// a request — request ID, recovery, shedding and the deadline, armed as
// scoutd arms them — in front of a handler that does nothing, over a
// cancelable parent context as net/http gives every request: 3 measured,
// the ID string, the X-Request-Id header's value and the one request copy
// that carries the record. It was 9 while withDeadline made a
// context.WithTimeout per request (4 over this parent, whose children map
// and Done channel outlive a request; net/http's context makes both per
// request) and a request copy for it, and withRequestID a request-ID
// context, its request copy and an ID concatenated from a formatted number.
// The ceiling is the measure plus a half.
func TestRequestSpineAllocations(t *testing.T) {
	const budget = 3.5
	srv := NewServer(nil, nil, NewStore(), nil)
	srv.MaxInFlight, srv.RequestTimeout = 64, 10*time.Second
	h := srv.harden(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := httptest.NewRequest("GET", "/", nil).WithContext(ctx)
	w := &nullWriter{header: http.Header{}}
	allocs := testing.AllocsPerRun(200, func() { h.ServeHTTP(w, r) })
	t.Logf("%.2f allocations per request", allocs)
	if allocs > budget {
		t.Errorf("%.2f allocations per request through the spine, budget %.1f", allocs, budget)
	}
}

// nullWriter is a ResponseWriter that keeps nothing but its header map.
type nullWriter struct{ header http.Header }

func (w *nullWriter) Header() http.Header         { return w.header }
func (w *nullWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullWriter) WriteHeader(int)             {}
