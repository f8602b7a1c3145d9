package serving

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"scouts/internal/allocgate"
	"scouts/internal/core"
)

// TestBatchHandlerAllocations pins what one 32-item /v1/predict:batch
// costs, handler in, recorder out, on each of three bodies: two an item —
// Scout.predict 1 (the registry copy the health report reads off a source
// without a health view, as this bare simulator is; the component array
// is cut from a block made once in hundreds of names, and the
// explanation's signals travel in the answer and are appended into it),
// the item's share of the request (one string arena, one list arena, the
// slices and the envelope) and of the fan-out, one allocation a worker
// (GOMAXPROCS is 2 for the measure).
func TestBatchHandlerAllocations(t *testing.T) {
	const batchSize, bodies = 32, 3
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
		allocgate.Check(t, fmt.Sprintf("serving.batch/body=%d", i), 64, func() {
			rd.Reset(body)
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/predict:batch", rd))
			if w.Code != 200 {
				t.Fatalf("status %d: %s", w.Code, w.Body.String())
			}
		})
	}
}

// TestRecommendationAllocations: the §8 fine print, usable answer or
// fallback, is appended into the caller's buffer without allocating.
func TestRecommendationAllocations(t *testing.T) {
	usable := core.Prediction{Verdict: core.VerdictResponsible, Responsible: true, Confidence: 0.93, Components: make([]string, 12)}
	fallback := core.Prediction{Verdict: core.VerdictFallback}
	buf := make([]byte, 0, 512)
	for _, c := range []struct {
		name string
		p    *core.Prediction
	}{{"usable", &usable}, {"fallback", &fallback}} {
		allocgate.Check(t, "serving.appendRecommendation/"+c.name, 0, func() { buf = appendRecommendation(buf[:0], "PhyNet", c.p) })
	}
}

// TestPredictHandlerAllocations pins what one /v1/predict costs through
// the whole Handler() chain — shedding and the deadline armed, as scoutd
// runs it — recorder and test request included (scoutbench's
// serving.handler_allocs), on each of eight held-out requests. The
// request's record is its context, pooled, and carries the ID and the
// deadline, so the spine makes one request copy, the ID and its header
// value (TestRequestSpineAllocations); the answer appends the explanation.
func TestPredictHandlerAllocations(t *testing.T) {
	const requests = 8
	srv, _, _ := trainAndServe(t)
	srv.MaxInFlight, srv.RequestTimeout = 64, 10*time.Second
	h := srv.Handler()
	rd := bytes.NewReader(nil)
	for i, req := range heldOutRequests(t)[:requests] {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		allocgate.Check(t, fmt.Sprintf("serving.predict/request=%d", i), 28, func() {
			rd.Reset(body)
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/predict", rd))
			if w.Code != 200 {
				t.Fatalf("status %d: %s", w.Code, w.Body.String())
			}
		})
	}
}

// TestRequestSpineAllocations pins what the hardening chain itself costs
// a request — request ID, recovery, shedding and the deadline, armed as
// scoutd arms them — in front of a handler that does nothing, over a
// cancelable parent context as net/http gives every request: the ID
// string, the X-Request-Id header's value and the one request copy that
// carries the record.
func TestRequestSpineAllocations(t *testing.T) {
	srv := NewServer(nil, nil, NewStore(), nil)
	srv.MaxInFlight, srv.RequestTimeout = 64, 10*time.Second
	h := srv.harden(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := httptest.NewRequest("GET", "/", nil).WithContext(ctx)
	w := &nullWriter{header: http.Header{}}
	allocgate.Check(t, "serving.spine", 3, func() { h.ServeHTTP(w, r) })
}

// nullWriter is a ResponseWriter that keeps nothing but its header map.
type nullWriter struct{ header http.Header }

func (w *nullWriter) Header() http.Header         { return w.header }
func (w *nullWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullWriter) WriteHeader(int)             {}
