//go:build !race

package serving

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"scouts/internal/core"
)

// TestBatchHandlerAllocations pins what one item of a 32-item
// /v1/predict:batch costs in allocations, handler in, recorder out, in
// steady state: 3.0–3.1 measured — Scout.predict 2 (the explanation, and
// the registry copy the health report reads off a source without a health
// view, as this bare simulator is; the component array is cut from a block
// made once in hundreds of names), and the item's share of the request: one
// string arena, one list arena, the slices and the envelope. It was 5.1
// while Scout.predict joined the text and made each component array;
// 15.1–15.3 while each string and list of the request was an allocation of
// its own, Scout.predict made 8 and the recommendation was a string; 19.3
// while encoding/json's reflection decoded the request and walked a
// PredictResponse built for it; and 119 before the answer path stopped
// formatting and ranking. The ceiling, 4, fails a one-allocation-per-item
// regression. (A non-race file: the race detector makes sync.Pool drop
// items at random.)
func TestBatchHandlerAllocations(t *testing.T) {
	const batchSize, budgetPerItem = 32, 4
	srv, _, _ := trainAndServe(t)
	h := srv.Handler()
	var bodies [][]byte
	for reqs := heldOutRequests(t); len(reqs) >= batchSize && len(bodies) < 3; reqs = reqs[batchSize:] {
		body, err := json.Marshal(BatchPredictRequest{Items: reqs[:batchSize]})
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	rd := bytes.NewReader(nil)
	for i, body := range bodies {
		allocs := testing.AllocsPerRun(10, func() {
			rd.Reset(body)
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/predict:batch", rd))
			if w.Code != 200 {
				t.Fatalf("status %d: %s", w.Code, w.Body.String())
			}
		})
		perItem := allocs / batchSize
		t.Logf("batch %d: %.1f allocations per item", i, perItem)
		if perItem > budgetPerItem {
			t.Errorf("batch %d: %.1f allocations per item, budget %d", i, perItem, budgetPerItem)
		}
	}
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
// the whole Handler() chain — shedding and the deadline guard armed, as
// scoutd runs it — recorder and test request included (scoutbench's
// serving.handler_allocs): 35–36 by request over these eight, mean 35.75,
// where the joined text and a component array per answer cost 37–38, mean
// 37.75; the deadline watchdog registered with context.AfterFunc (its own
// context, the registration and two closures), the request ID boxed into
// a context.WithValue and the mux's status writer made per request cost
// 45–46, mean 45.75; a string and a list per request field,
// Scout.predict's 8, the answer moved to the heap by the observer, the
// recommendation's string and a Content-Type slice per answer 54–57, mean
// 56; encoding/json's reflection — the request's decoder, the
// PredictResponse built for its encoder — 65–71, mean 67.75; and the
// deadline guard's goroutine, channel and per-request buffer 67–73 before
// that. The ceiling is the mean plus a half, so one allocation more per
// request exceeds it.
func TestPredictHandlerAllocations(t *testing.T) {
	const requests, budget = 8, 36.25
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
