package gateway

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"scouts/internal/serving"
)

// TestErrorContractIsOneAcrossDaemons drives one table of misbehaving
// requests through a replica's serving.Server.Handler() and through a
// Gateway.Handler() fronting that same replica: both daemons mount the
// same spine (internal/httpx), so the status is the same and every error
// is an application/json {"error": ...} object on both.
func TestErrorContractIsOneAcrossDaemons(t *testing.T) {
	gen, _, store := fleetEnv(t)
	srv := serving.NewServer(gen.Topology(), gen.Telemetry(), store, nil)
	if err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	scoutd := srv.Handler()
	replica := httptest.NewServer(scoutd)
	defer replica.Close()
	g := newTestGateway(t, Config{Replicas: []ReplicaConfig{{Name: "a", Team: "phynet", URL: replica.URL}}})
	scoutgw := g.Handler()

	// Both daemons cap a predict body at 1 MiB; pad a valid request to the
	// byte.
	padded := func(size int) string {
		const head, tail = `{"title":"`, `","time":1}`
		return head + strings.Repeat("x", size-len(head)-len(tail)) + tail
	}

	cases := []struct {
		name, method, path, body string
		want                     int
	}{
		{"malformed JSON", "POST", "/v1/predict", `{"title":`, 400},
		{"unknown field", "POST", "/v1/predict", `{"title":"t","time":1,"nope":true}`, 400},
		{"body at the cap", "POST", "/v1/predict", padded(maxGwBody), 200},
		{"body one byte over the cap", "POST", "/v1/predict", padded(maxGwBody + 1), 413},
		{"unrouted path", "GET", "/nope", "", 404},
		{"method mismatch", "GET", "/v1/predict", "", 404},
		// A body is one JSON value: both daemons refuse what follows it,
		// and allow only whitespace.
		{"trailing bytes after the value", "POST", "/v1/predict", `{"title":"t","time":1} trailing`, 400},
		{"a second value", "POST", "/v1/predict", `{"title":"t","time":1}{}`, 400},
		{"trailing whitespace", "POST", "/v1/predict", "{\"title\":\"t\",\"time\":1} \r\n\t", 200},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, d := range []struct {
				name string
				h    http.Handler
			}{{"scoutd", scoutd}, {"scoutgw", scoutgw}} {
				rec := httptest.NewRecorder()
				d.h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body)))
				if rec.Code != tc.want {
					t.Fatalf("%s: status = %d, want %d (body: %.200s)", d.name, rec.Code, tc.want, rec.Body.String())
				}
				if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
					t.Fatalf("%s: Content-Type = %q, want application/json", d.name, ct)
				}
				if tc.want == http.StatusOK {
					continue
				}
				var eb errorBody
				if err := json.NewDecoder(rec.Body).Decode(&eb); err != nil || eb.Error == "" {
					t.Fatalf("%s: %d body is not a JSON error object (%v): %s", d.name, rec.Code, err, rec.Body.String())
				}
			}
		})
	}
}

// TestFreshGatewayExportsPanicCounter: the gateway recovers handler
// panics through the spine, and the counter is scrapeable before the
// first one.
func TestFreshGatewayExportsPanicCounter(t *testing.T) {
	g := newTestGateway(t, Config{Replicas: []ReplicaConfig{{Name: "a", Team: "phynet", URL: "http://a.invalid"}}})
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if want := "scout_gw_http_panics_recovered_total 0\n"; !strings.Contains(rec.Body.String(), want) {
		t.Fatalf("/metrics lacks %q", want)
	}
}
