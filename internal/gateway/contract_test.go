package gateway

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"scouts/internal/faults"
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

// TestFarFutureTimeIsRelayed: a trigger time past serving.MaxTriggerTime
// sent through the gateway comes back at once as the replica's own 400,
// and the replica pulled no monitoring for it — no breaker tripped. Past
// about 9.2·10^17 hours a replica's window pull never ended.
func TestFarFutureTimeIsRelayed(t *testing.T) {
	gen, log, store := fleetEnv(t)
	srv := serving.NewServer(gen.Topology(), faults.NewBreaker(gen.Telemetry(), faults.BreakerParams{}), store, nil)
	if err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	replica := httptest.NewServer(srv.Handler())
	defer replica.Close()
	g := newTestGateway(t, Config{Replicas: []ReplicaConfig{{Name: "a", Team: "phynet", URL: replica.URL}}})
	in := log.Incidents[300]
	body, err := json.Marshal(serving.PredictRequest{Title: in.Title, Body: in.Body, Time: 1e19})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		g.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/predict", bytes.NewReader(body)))
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("no answer through the gateway after 5s")
	}
	want := httptest.NewRecorder()
	srv.Handler().ServeHTTP(want, httptest.NewRequest("POST", "/v1/predict", bytes.NewReader(body)))
	if rec.Code != http.StatusBadRequest || want.Code != http.StatusBadRequest || rec.Body.String() != want.Body.String() {
		t.Fatalf("gateway answered %d %s; the replica answers %d %s", rec.Code, rec.Body.String(), want.Code, want.Body.String())
	}
	metrics := httptest.NewRecorder()
	srv.Handler().ServeHTTP(metrics, httptest.NewRequest("GET", "/metrics", nil))
	trips := 0
	for _, line := range strings.Split(metrics.Body.String(), "\n") {
		if strings.HasPrefix(line, "scout_breaker_trips_total{") {
			trips++
			if !strings.HasSuffix(line, " 0") {
				t.Fatalf("a breaker tripped: %s", line)
			}
		}
	}
	if trips == 0 {
		t.Fatal("the replica exports no scout_breaker_trips_total series")
	}
}

// TestConfigClientContract: send hands requests to Config.Client's
// Transport and nothing else, so New refuses a Client that sets a
// Timeout, a Jar or a CheckRedirect, which would go unheeded; the per-try
// timeout bounds an attempt, and an upstream redirect is relayed to the
// client, not followed.
func TestConfigClientContract(t *testing.T) {
	reps := []ReplicaConfig{{Name: "a", Team: "phynet", URL: "http://a.invalid"}}
	jar, err := cookiejar.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*http.Client{
		"Timeout":       {Timeout: time.Second},
		"Jar":           {Jar: jar},
		"CheckRedirect": {CheckRedirect: func(*http.Request, []*http.Request) error { return nil }},
	} {
		if _, err := New(Config{Replicas: reps, Client: c}); err == nil || !strings.Contains(err.Error(), "may set only Transport") {
			t.Errorf("a Client with a %s: New answered %v, want a refusal", name, err)
		}
	}
	for _, c := range []*http.Client{nil, {}, {Transport: http.DefaultTransport}} {
		if _, err := New(Config{Replicas: reps, Client: c}); err != nil {
			t.Errorf("Client %+v refused: %v", c, err)
		}
	}

	const moved = `{"moved":true}`
	var elsewhere atomic.Int64
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/predict" {
			elsewhere.Add(1)
			return
		}
		w.Header().Set("Location", "/elsewhere")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTemporaryRedirect)
		_, _ = io.WriteString(w, moved)
	}))
	defer replica.Close()
	g := newTestGateway(t, Config{Replicas: []ReplicaConfig{{Name: "a", Team: "phynet", URL: replica.URL}}})
	defer g.transport.(*http.Transport).CloseIdleConnections()
	w := doPredict(t, g.Handler(), "", "incident 1")
	if w.Code != http.StatusTemporaryRedirect || w.Body.String() != moved || elsewhere.Load() != 0 {
		t.Fatalf("a 307 came back as %d %q with %d requests to its Location; want it relayed, not followed", w.Code, w.Body.String(), elsewhere.Load())
	}
}

// TestRefusedConnectionIs502 pins the 502 of a replica that refuses the
// connection to the text Client.Do gave it: the transport's error wrapped
// in a *url.Error naming the method and the URL.
func TestRefusedConnectionIs502(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	g := newTestGateway(t, Config{
		Replicas:    []ReplicaConfig{{Name: "a", Team: "phynet", URL: "http://" + addr}},
		MaxAttempts: 1, HedgeAfter: -1,
	})
	w := doPredict(t, g.Handler(), "", "incident 1")
	want := `{"error":"team phynet: Post \"http://` + addr + `/v1/predict\": dial tcp ` + addr + `: connect: connection refused",` +
		`"fleet_health":{"replicas_total":1,"replicas_up":1,"degraded":true,"skipped":[{"replica":"a","reason":"unreachable"}]}}` + "\n"
	if w.Code != http.StatusBadGateway || w.Body.String() != want {
		t.Fatalf("answered %d %s\nwant 502 %s", w.Code, w.Body.String(), want)
	}
}
