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
// steady state: 21 measured (JSON decoding of the item's strings ≈ 7,
// Scout.predict 8, the response 3, the envelope's share 3) where the same
// request cost 119 before the answer path stopped formatting and ranking;
// the budget leaves the decoder's share some slack. (A non-race file: the
// race detector makes sync.Pool drop items at random.)
func TestBatchHandlerAllocations(t *testing.T) {
	const batchSize, budgetPerItem = 32, 26
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

// TestRecommendationAllocations: the §8 fine print of a usable answer
// allocates the string it returns and nothing else; a fallback's is a
// constant.
func TestRecommendationAllocations(t *testing.T) {
	usable := core.Prediction{Verdict: core.VerdictResponsible, Responsible: true, Confidence: 0.93, Components: make([]string, 12)}
	fallback := core.Prediction{Verdict: core.VerdictFallback}
	for _, c := range []struct {
		name string
		p    *core.Prediction
		want float64
	}{{"usable", &usable, 1}, {"fallback", &fallback, 0}} {
		if got := testing.AllocsPerRun(100, func() { recommendation("PhyNet", c.p) }); got != c.want {
			t.Errorf("recommendation of a %s answer: %v allocations, want %v", c.name, got, c.want)
		}
	}
}

// TestPredictHandlerAllocations pins what one /v1/predict costs through
// the whole Handler() chain — shedding and the deadline guard armed, as
// scoutd runs it — recorder and test request included (scoutbench's
// serving.handler_allocs): 65–71 by request over these eight, mean 67.75,
// where the guard's goroutine, channel and per-request buffer made it
// 67–73, mean 69.75. The mean is the ceiling, so it fails if they return.
func TestPredictHandlerAllocations(t *testing.T) {
	const requests, budget = 8, 68.0
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
		t.Errorf("%.2f allocations per /v1/predict, budget %.0f", mean, budget)
	}
}
