package serving

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"scouts/internal/core"
	"scouts/internal/faults"
	"scouts/internal/httpx"
	"scouts/internal/monitoring"
)

func postJSON(t testing.TB, ts *httptest.Server, path string, v any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

// TestStoreSnapshotIsolation is the regression test for the snapshot
// aliasing bug: Put and Latest used to hand out the same backing array, so
// a caller scribbling on its buffer after Put (or on a Latest result) would
// corrupt the stored model for every later Reload.
func TestStoreSnapshotIsolation(t *testing.T) {
	st := NewStore()
	buf := []byte("pristine snapshot")
	st.Put("PhyNet", buf)
	copy(buf, "CORRUPTED")
	if m, _ := st.Latest(); string(m.Snapshot) != "pristine snapshot" {
		t.Fatalf("Put aliased the caller's buffer: %q", m.Snapshot)
	}
	m2, _ := st.Latest()
	copy(m2.Snapshot, "SCRIBBLE!")
	if m, _ := st.Latest(); string(m.Snapshot) != "pristine snapshot" {
		t.Fatalf("Latest handed out store-internal bytes: %q", m.Snapshot)
	}
}

// TestBatchPredictMatchesSingle pins the batch endpoint contract: each
// item's prediction is exactly what /v1/predict answers for it.
func TestBatchPredictMatchesSingle(t *testing.T) {
	srv, _, _ := trainAndServe(t)
	_, log, _ := testEnv(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var breq BatchPredictRequest
	for _, in := range log.Incidents[len(log.Incidents)-16:] {
		breq.Items = append(breq.Items, PredictRequest{
			Title: in.Title, Body: in.Body, Components: in.Components, Time: in.CreatedAt,
		})
	}
	resp, body := postJSON(t, ts, "/v1/predict:batch", breq)
	if resp.StatusCode != 200 {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var bresp BatchPredictResponse
	if err := json.Unmarshal(body, &bresp); err != nil {
		t.Fatal(err)
	}
	if bresp.ModelVersion != 1 || len(bresp.Results) != len(breq.Items) {
		t.Fatalf("batch response shape: version=%d results=%d", bresp.ModelVersion, len(bresp.Results))
	}
	for i, item := range breq.Items {
		sresp, sbody := postJSON(t, ts, "/v1/predict", item)
		if sresp.StatusCode != 200 {
			t.Fatalf("single status %d: %s", sresp.StatusCode, sbody)
		}
		var single PredictResponse
		if err := json.Unmarshal(sbody, &single); err != nil {
			t.Fatal(err)
		}
		if bresp.Results[i].Error != "" || bresp.Results[i].Prediction == nil {
			t.Fatalf("item %d: unexpected error %q", i, bresp.Results[i].Error)
		}
		if !reflect.DeepEqual(*bresp.Results[i].Prediction, single) {
			t.Fatalf("item %d: batch %+v != single %+v", i, *bresp.Results[i].Prediction, single)
		}
	}
}

// TestBatchPredictParallelOverBreaker drives the batch endpoint the way the
// daemon runs it — breaker-wrapped telemetry, every item of a batch scored
// on its own worker, several batches in flight — and checks that healthy
// data is never mistaken for an outage: each item answers what /v1/predict
// answers over the raw source, no breaker opens, nothing is imputed, and
// the observer has counted every item once.
func TestBatchPredictParallelOverBreaker(t *testing.T) {
	raw, store, _ := trainAndServe(t)
	gen, log, _ := testEnv(t)
	breaker := faults.NewBreaker(gen.Telemetry(), faults.BreakerParams{})
	srv := NewServer(gen.Topology(), breaker, store, nil)
	if err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	rawTS := httptest.NewServer(raw.Handler())
	defer rawTS.Close()

	var breq BatchPredictRequest
	var want []PredictResponse
	for _, in := range log.Incidents[len(log.Incidents)-32:] {
		item := PredictRequest{Title: in.Title, Body: in.Body, Components: in.Components, Time: in.CreatedAt}
		breq.Items = append(breq.Items, item)
		resp, body := postJSON(t, rawTS, "/v1/predict", item)
		if resp.StatusCode != 200 {
			t.Fatalf("single status %d: %s", resp.StatusCode, body)
		}
		var single PredictResponse
		if err := json.Unmarshal(body, &single); err != nil {
			t.Fatal(err)
		}
		want = append(want, single)
	}

	const clients, rounds = 4, 5
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				resp, body := postJSON(t, ts, "/v1/predict:batch", breq)
				if resp.StatusCode != 200 {
					t.Errorf("batch status %d: %s", resp.StatusCode, body)
					return
				}
				var bresp BatchPredictResponse
				if err := json.Unmarshal(body, &bresp); err != nil {
					t.Error(err)
					return
				}
				for i := range want {
					if got := bresp.Results[i].Prediction; got == nil || !reflect.DeepEqual(*got, want[i]) {
						t.Errorf("item %d: batch over the breaker %+v != single over the raw source %+v", i, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	for _, d := range breaker.Datasets() {
		if n := breaker.Trips(d.Name); n != 0 {
			t.Errorf("breaker %q opened %d times over healthy telemetry", d.Name, n)
		}
	}
	var scrape strings.Builder
	if err := srv.Metrics().WritePrometheus(&scrape); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(scrape.String(), "scout_imputed_predictions_total 0\n") {
		t.Error("predictions were imputed over healthy telemetry")
	}
	served := 0.0
	for _, line := range strings.Split(scrape.String(), "\n") {
		if name, value, ok := strings.Cut(line, " "); ok && strings.HasPrefix(name, "scout_predictions_total{") {
			n, err := strconv.ParseFloat(value, 64)
			if err != nil {
				t.Fatal(err)
			}
			served += n
		}
	}
	if served != clients*rounds*32 {
		t.Errorf("observer counted %.0f predictions for %d items", served, clients*rounds*32)
	}
}

func TestBatchPredictRequestValidation(t *testing.T) {
	srv, _, _ := trainAndServe(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Empty batch fails the whole call.
	resp, body := postJSON(t, ts, "/v1/predict:batch", BatchPredictRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d: %s", resp.StatusCode, body)
	}

	// Too many items fails the whole call with 413.
	over := BatchPredictRequest{Items: make([]PredictRequest, MaxBatchItems+1)}
	for i := range over.Items {
		over.Items[i] = PredictRequest{Title: "t", Time: 1}
	}
	resp, body = postJSON(t, ts, "/v1/predict:batch", over)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: status %d: %s", resp.StatusCode, body)
	}

	// Unknown top-level field is rejected: a typo must not silently drop
	// the entire payload.
	resp2, err := http.Post(ts.URL+"/v1/predict:batch", "application/json",
		strings.NewReader(`{"itmes": []}`))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d", resp2.StatusCode)
	}
}

// TestBatchPredictPartialFailure: one invalid item yields a per-item error
// in a 200 response; the valid items are still scored.
func TestBatchPredictPartialFailure(t *testing.T) {
	srv, _, _ := trainAndServe(t)
	_, log, _ := testEnv(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	good := log.Incidents[len(log.Incidents)-1]
	breq := BatchPredictRequest{Items: []PredictRequest{
		{Title: good.Title, Body: good.Body, Components: good.Components, Time: good.CreatedAt},
		{Title: "missing time"}, // Time == 0: invalid
		{Title: good.Title, Body: good.Body, Components: good.Components, Time: good.CreatedAt},
	}}
	resp, body := postJSON(t, ts, "/v1/predict:batch", breq)
	if resp.StatusCode != 200 {
		t.Fatalf("partial batch should 200, got %d: %s", resp.StatusCode, body)
	}
	var bresp BatchPredictResponse
	if err := json.Unmarshal(body, &bresp); err != nil {
		t.Fatal(err)
	}
	if len(bresp.Results) != 3 {
		t.Fatalf("results: %d", len(bresp.Results))
	}
	if bresp.Results[0].Prediction == nil || bresp.Results[2].Prediction == nil {
		t.Fatal("valid items should still be scored")
	}
	if bresp.Results[1].Prediction != nil || bresp.Results[1].Error == "" {
		t.Fatalf("invalid item should carry an error, got %+v", bresp.Results[1])
	}
	if !reflect.DeepEqual(bresp.Results[0].Prediction, bresp.Results[2].Prediction) {
		t.Fatal("identical items answered differently")
	}
}

func TestPredictBodyCap(t *testing.T) {
	srv, _, _ := trainAndServe(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	huge, err := json.Marshal(PredictRequest{
		Title: "t", Body: strings.Repeat("x", maxPredictBody+1), Time: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body should 413, got %d", resp.StatusCode)
	}

	resp2, err := http.Post(ts.URL+"/v1/predict", "application/json",
		strings.NewReader(`{"title": "t", "time": 1, "tiem": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field should 400, got %d", resp2.StatusCode)
	}
}

// TestBatchPredictDuringHotSwap runs batches concurrently with model
// reloads (run under -race). Every response must be internally consistent:
// all items in one batch answered by one model version.
func TestBatchPredictDuringHotSwap(t *testing.T) {
	srv, store, _ := trainAndServe(t)
	gen, log, cfg := testEnv(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	tr := &Trainer{Store: store}
	if _, _, err := tr.TrainAndPublish(core.TrainOptions{
		Config: cfg, Topology: gen.Topology(), Source: gen.Telemetry(),
		Incidents: log.Incidents[:320], Seed: 7,
	}); err != nil {
		t.Fatal(err)
	}

	var breq BatchPredictRequest
	for _, in := range log.Incidents[len(log.Incidents)-8:] {
		breq.Items = append(breq.Items, PredictRequest{
			Title: in.Title, Body: in.Body, Components: in.Components, Time: in.CreatedAt,
		})
	}
	payload, err := json.Marshal(breq)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				resp, err := http.Post(ts.URL+"/v1/predict:batch", "application/json", bytes.NewReader(payload))
				if err != nil {
					errc <- err
					return
				}
				var br BatchPredictResponse
				err = json.NewDecoder(resp.Body).Decode(&br)
				resp.Body.Close()
				if err != nil {
					errc <- err
					return
				}
				if resp.StatusCode != 200 {
					errc <- fmt.Errorf("batch status %d", resp.StatusCode)
					return
				}
				for _, res := range br.Results {
					if res.Prediction == nil {
						errc <- fmt.Errorf("missing prediction: %+v", res)
						return
					}
					if res.Prediction.ModelVersion != br.ModelVersion {
						errc <- fmt.Errorf("mid-batch version skew: item v%d, batch v%d",
							res.Prediction.ModelVersion, br.ModelVersion)
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := srv.Reload(); err != nil {
				errc <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// cancelOnPull is a DataSource that cancels a request the moment the Scout
// first reads monitoring data for it. Embedding only the DataSource
// methods routes every read through the two below.
type cancelOnPull struct {
	monitoring.DataSource
	cancel context.CancelFunc
}

func (c cancelOnPull) SeriesWindow(dataset, component string, from, to float64) []float64 {
	c.cancel()
	return c.DataSource.SeriesWindow(dataset, component, from, to)
}

func (c cancelOnPull) EventsWindow(dataset, component string, from, to float64) []monitoring.EventRecord {
	c.cancel()
	return c.DataSource.EventsWindow(dataset, component, from, to)
}

// TestBatchStopsBetweenChunksOnceTheRequestIsGone: the batch handler
// scores in 32-item chunks and checks the request's context between them.
// A request that goes away while its first chunk is scored gets no second
// chunk and no answer — nobody is left to read one.
func TestBatchStopsBetweenChunksOnceTheRequestIsGone(t *testing.T) {
	_, store, _ := trainAndServe(t)
	gen, _, _ := testEnv(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv := NewServer(gen.Topology(), cancelOnPull{gen.Telemetry(), cancel}, store, nil)
	if err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(BatchPredictRequest{Items: heldOutRequests(t)[:64]})
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	srv.handlePredictBatch(w, httptest.NewRequest("POST", "/v1/predict:batch", bytes.NewReader(body)).WithContext(ctx))
	if w.Body.Len() != 0 {
		t.Fatalf("a request gone mid-batch was answered %d: %.200s", w.Code, w.Body.String())
	}
	var scrape strings.Builder
	if err := srv.Metrics().WritePrometheus(&scrape); err != nil {
		t.Fatal(err)
	}
	scored := 0.0
	for _, line := range strings.Split(scrape.String(), "\n") {
		if name, value, ok := strings.Cut(line, " "); ok && strings.HasPrefix(name, "scout_predictions_total{") {
			n, err := strconv.ParseFloat(value, 64)
			if err != nil {
				t.Fatal(err)
			}
			scored += n
		}
	}
	if scored != 32 {
		t.Fatalf("%.0f items scored for a request gone during the first 32", scored)
	}
}

// TestPooledBuffersStayBounded: one large batch — an answer past
// httpx.MaxPooledBuffer, served under the deadline guard — must not leave
// a buffer of its size in the answer pool or the record pool for every
// later request. The collector is off, so nothing the handler put back is
// dropped before the pools are drained.
func TestPooledBuffersStayBounded(t *testing.T) {
	srv, _, _ := trainAndServe(t)
	srv.RequestTimeout = 10 * time.Second
	h := srv.Handler()
	reqs := heldOutRequests(t)
	items := make([]PredictRequest, MaxBatchItems)
	for i := range items {
		items[i] = reqs[i%len(reqs)]
	}
	body, err := json.Marshal(BatchPredictRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/predict:batch", bytes.NewReader(body)))
	if w.Code != http.StatusOK || w.Body.Len() <= httpx.MaxPooledBuffer {
		t.Fatalf("status %d, a %d-byte answer: not a large batch answered", w.Code, w.Body.Len())
	}
	for i := 0; i < 64; i++ {
		if c := cap(*answerBufs.Get().(*[]byte)); c > httpx.MaxPooledBuffer {
			t.Fatalf("the answer pool handed back a buffer of %d bytes, cap %d", c, httpx.MaxPooledBuffer)
		}
		if c := cap(requestCtxs.Get().(*requestCtx).body); c > httpx.MaxPooledBuffer {
			t.Fatalf("the record pool handed back a body of %d bytes, cap %d", c, httpx.MaxPooledBuffer)
		}
	}
}
