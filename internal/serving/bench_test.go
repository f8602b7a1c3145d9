package serving

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"
)

// heldOutRequests is every incident trainAndServe did not train on, as
// predict requests.
func heldOutRequests(b testing.TB) []PredictRequest {
	_, log, _ := testEnv(b)
	var reqs []PredictRequest
	for _, in := range log.Incidents[300:] {
		reqs = append(reqs, PredictRequest{
			Title: in.Title, Body: in.Body, Components: in.Components, Time: in.CreatedAt,
		})
	}
	return reqs
}

// benchPost cycles the handler over bodies, one POST to path per iteration.
func benchPost(b *testing.B, path string, bodies [][]byte) {
	srv, _, _ := trainAndServe(b)
	h := srv.Handler()
	rd := bytes.NewReader(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(bodies[i%len(bodies)])
		req := httptest.NewRequest("POST", path, rd)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != 200 {
			b.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
}

// BenchmarkServingPredict times the full /v1/predict handler path —
// decode, featurize, forest inference, explanation, encode — without a
// network socket (httptest request/recorder only). allocs/op is the number
// that matters: the serving hot path must not produce per-request garbage
// beyond what JSON decoding of the request inherently costs.
//
// It cycles over the whole held-out slice (bodies marshalled before the
// timer starts). Posting one incident again and again, as it used to,
// measures that incident with the branch predictor warmed to its sorts and
// regex walks: it read 394–409 µs where this version reads 455–466 µs on
// the same code (DESIGN.md §7.3).
func BenchmarkServingPredict(b *testing.B) {
	var bodies [][]byte
	for _, r := range heldOutRequests(b) {
		body, err := json.Marshal(r)
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	benchPost(b, "/v1/predict", bodies)
}

// BenchmarkServingPredictBatch times /v1/predict:batch with 32 incidents
// per request, cycling over the held-out slice cut into consecutive batches
// for the reason above; divide ns/op by 32 to compare per-incident cost
// against BenchmarkServingPredict.
func BenchmarkServingPredictBatch(b *testing.B) {
	const batchSize = 32
	var bodies [][]byte
	for reqs := heldOutRequests(b); len(reqs) >= batchSize; reqs = reqs[batchSize:] {
		body, err := json.Marshal(BatchPredictRequest{Items: reqs[:batchSize]})
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	benchPost(b, "/v1/predict:batch", bodies)
}
