package serving

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"scouts/internal/cloudsim"
	"scouts/internal/core"
	"scouts/internal/httpx"
)

// response is the answer as the handlers built it before they appended it
// by hand: a PredictResponse for encoding/json to walk. It is the
// encoder's oracle.
func (m *servingModel) response(p core.Prediction) PredictResponse {
	return PredictResponse{
		Team:           m.scout.Team(),
		Verdict:        string(p.Verdict),
		Responsible:    p.Responsible,
		Confidence:     p.Confidence,
		Model:          p.Model,
		Components:     p.Components,
		Explanation:    p.Explanation(),
		Recommendation: recommendation(m.scout.Team(), &p),
		ModelVersion:   m.version,
		DataHealth:     healthInfo(p),
	}
}

func healthInfo(p core.Prediction) *DataHealthInfo {
	if !p.HasHealth {
		return nil
	}
	h := p.Health
	return &DataHealthInfo{
		ImputedFraction:   h.ImputedFraction(),
		DatasetCoverage:   h.DatasetCoverage(),
		DatasetsDown:      h.DatasetsDown,
		MaxStalenessHours: h.MaxStaleness,
	}
}

// sameAnswer fails unless two recorded answers carry the same status,
// headers and body bytes.
func sameAnswer(t *testing.T, what string, got, want *httptest.ResponseRecorder) {
	t.Helper()
	if got.Code != want.Code || !reflect.DeepEqual(got.Header(), want.Header()) || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("%s: appended answer\n%d %v %q\nencoding/json's\n%d %v %q", what,
			got.Code, got.Header(), got.Body.Bytes(), want.Code, want.Header(), want.Body.Bytes())
	}
}

// TestAnswerMatchesEncodingJSON: the appended /v1/predict answer is, byte
// for byte and header for header, what WriteJSON answers for the
// PredictResponse the handler used to build — over every held-out
// prediction of the serving fixture and over generated ones whose strings
// need every escape encoding/json writes (<>&, U+2028/9, invalid UTF-8,
// control characters) and whose floats sit where its formatting turns
// (1e-6, 1e21, -0, subnormals). A NaN or ±Inf anywhere gets
// encoding/json's 500, body included.
func TestAnswerMatchesEncodingJSON(t *testing.T) {
	srv, _, _ := trainAndServe(t)
	_, log, _ := testEnv(t)
	m := srv.current.Load()
	check := func(what string, m *servingModel, p core.Prediction) {
		t.Helper()
		answer, err := m.appendPrediction(nil, &p)
		got := httptest.NewRecorder()
		srv.writeAnswer(got, append(answer, '\n'), err)
		want := httptest.NewRecorder()
		srv.web.WriteJSON(want, 200, m.response(p))
		sameAnswer(t, what, got, want)
	}
	withHealth := 0
	for _, in := range log.Incidents[300:] {
		p := m.scout.Predict(in.Title, in.Body, in.Components, in.CreatedAt)
		check(in.ID, m, p)
		if p.HasHealth {
			withHealth++
		}
	}
	if withHealth < 50 {
		t.Fatalf("only %d held-out answers carry a health report", withHealth)
	}

	rng := rand.New(rand.NewSource(41))
	pieces := []string{"<", ">", "&", "\"", "\\", "/", "\u2028", "\u2029", "\ufffd", "\x00", "\x1f", "\x7f",
		"\b\f\n\r\t", "\u00e9", "\U0001f600", "\xff", "\xed\xa0\x80", "\xe2\x80", "tor1.c1.dc1", " "}
	text := func() string {
		var b strings.Builder
		for n := rng.Intn(8); n > 0; n-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		return b.String()
	}
	names := func() []string {
		var list []string
		for n := rng.Intn(4); n > 0; n-- {
			list = append(list, text())
		}
		return list
	}
	corners := []float64{0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0),
		-1e21, 1e-7, 1e-9, 1e-10, 1.5e300, math.SmallestNonzeroFloat64, 2.2250738585072014e-308 / 3,
		math.MaxFloat64, 0.5, 1, 0.93, 1.0 / 3, 123456789.125}
	float := func() float64 {
		if rng.Intn(2) == 0 {
			return corners[rng.Intn(len(corners))]
		}
		return math.Float64frombits(rng.Uint64()) // NaN and ±Inf now and then
	}
	verdicts := []core.Verdict{core.VerdictResponsible, core.VerdictNotResponsible, core.VerdictFallback, core.VerdictExcluded}
	refused := 0
	for i := 0; i < 20000; i++ {
		p := core.Prediction{
			Verdict:     verdicts[rng.Intn(len(verdicts))],
			Responsible: rng.Intn(2) == 0,
			Confidence:  float(),
			Model:       text(),
			Components:  names(),
			Text:        text(),
		}
		if i%3 != 0 {
			p.Health = core.DataHealth{
				ImputedSlots: rng.Intn(5), TotalSlots: rng.Intn(5),
				DatasetsDown: names(), DatasetsTotal: rng.Intn(5) - 1,
				MaxStaleness: float(),
			}
			p.HasHealth = true
		}
		if i%7 == 0 {
			p.Verdict = core.Verdict(text())
		}
		mv := &servingModel{scout: m.scout, version: rng.Intn(1 << 20)}
		if _, err := mv.appendPrediction(nil, &p); err != nil {
			refused++
		}
		check("generated", mv, p)
	}
	if refused == 0 {
		t.Fatal("no generated prediction carried a NaN or ±Inf")
	}
}

// TestBatchAnswerMatchesEncodingJSON: a /v1/predict:batch answer over more
// than one chunk, with invalid items before, between and after the valid
// ones, is byte for byte what WriteJSON answers for the
// BatchPredictResponse the handler used to build.
func TestBatchAnswerMatchesEncodingJSON(t *testing.T) {
	srv, _, _ := trainAndServe(t)
	m := srv.current.Load()
	var req BatchPredictRequest
	for i, it := range heldOutRequests(t)[:70] {
		switch i {
		case 0, 33, 69:
			it.Time = 0
		case 5:
			it.Title, it.Body = "", ""
		case 40:
			it.Time = 1e19
		}
		req.Items = append(req.Items, it)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	got := httptest.NewRecorder()
	srv.Handler().ServeHTTP(got, httptest.NewRequest("POST", "/v1/predict:batch", bytes.NewReader(body)))

	resp := BatchPredictResponse{ModelVersion: m.version, Results: make([]BatchItemResult, len(req.Items))}
	var valid []int
	var batch []core.BatchRequest
	for i := range req.Items {
		it := &req.Items[i]
		if msg := validatePredict(it); msg != "" {
			resp.Results[i].Error = msg
			continue
		}
		valid = append(valid, i)
		batch = append(batch, core.BatchRequest{Title: it.Title, Body: it.Body, Components: it.Components, Time: it.Time})
	}
	for k, p := range m.scout.PredictBatch(batch) {
		pr := m.response(p)
		resp.Results[valid[k]].Prediction = &pr
	}
	want := httptest.NewRecorder()
	srv.web.WriteJSON(want, 200, resp)
	got.Header().Del("X-Request-Id") // the handler chain's, not the answer's
	sameAnswer(t, "batch", got, want)
}

// TestLexerTakesServedBodies: every request body json.Marshal writes for
// the incidents the harness and the tests serve — the 901 incidents of
// scoutbench's world (seed 7, 90 days, 10 a day), singly and in its
// 32-item batches, and the serving fixture's held-out set — is taken
// whole by the canonical lexer, into the value the strict decoder reads.
// Without it a regression could hide behind a silent fallback.
func TestLexerTakesServedBodies(t *testing.T) {
	check := func(what string, reqs []PredictRequest) {
		t.Helper()
		for i, req := range reqs {
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			var got, want PredictRequest
			if !httpx.ParsePredict(body, &got) {
				t.Fatalf("%s %d: the lexer does not take %s", what, i, body)
			}
			if err := json.Unmarshal(body, &want); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %d: lexed %+v, encoding/json reads %+v (%v)", what, i, got, want, err)
			}
		}
		for lo := 0; lo < len(reqs); lo += 32 {
			var batch BatchPredictRequest
			for k := 0; k < 32; k++ {
				batch.Items = append(batch.Items, reqs[(lo+k)%len(reqs)])
			}
			body, err := json.Marshal(batch)
			if err != nil {
				t.Fatal(err)
			}
			var got, want BatchPredictRequest
			if !httpx.ParseBatch(body, &got) {
				t.Fatalf("%s: the lexer does not take the batch at %d", what, lo)
			}
			if err := json.Unmarshal(body, &want); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: the batch at %d lexes unlike encoding/json's reading (%v)", what, lo, err)
			}
		}
	}
	world := cloudsim.New(cloudsim.Params{Seed: 7, Days: 90, IncidentsPerDay: 10}).Generate()
	if len(world.Incidents) != 901 {
		t.Fatalf("scoutbench's world has %d incidents, want 901", len(world.Incidents))
	}
	var reqs []PredictRequest
	for _, in := range world.Incidents {
		reqs = append(reqs, PredictRequest{Title: in.Title, Body: in.Body, Components: in.InitialComponents, Time: in.CreatedAt})
	}
	check("benchmark world", reqs)
	check("held-out set", heldOutRequests(t))
}
