package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"scouts/internal/gateway"
)

// TestRetryHint: loadgen's rule over the gateway's reader — no hint is 1s,
// every hint is at most 5s. The counts past what a Duration holds in
// nanoseconds are the ones a multiply before the cap wrapped: 9223372037 s
// to −2562047h (an instant retry), 18446744074 s to 290ms.
func TestRetryHint(t *testing.T) {
	for _, tc := range []struct {
		header string // "" sends no Retry-After
		want   time.Duration
	}{
		{"", time.Second},
		{"2", 2 * time.Second},
		{"5", 5 * time.Second},
		{"6", 5 * time.Second},
		{"3600", 5 * time.Second},
		{"0", time.Second},
		{"-1", time.Second},
		{"+7", time.Second},
		{"garbage", time.Second},
		{"Wed, 21 Oct 2015 07:28:00 GMT", time.Second},
		{"9223372036", 5 * time.Second},
		{"9223372037", 5 * time.Second},
		{"18446744074", 5 * time.Second},
		{"99999999999999999999999", 5 * time.Second},
	} {
		h := http.Header{}
		if tc.header != "" {
			h.Set("Retry-After", tc.header)
		}
		if got := retryHint(h); got != tc.want {
			t.Errorf("Retry-After %q: hint %v, want %v", tc.header, got, tc.want)
		}
	}
}

// TestDriveHonors429 pins the loadgen side of the Retry-After contract:
// a 429 is slept out and re-issued (counted as a retry), not hammered
// and not counted as an error.
func TestDriveHonors429(t *testing.T) {
	var calls atomic.Int64
	var early atomic.Int64
	var firstAt atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		n := calls.Add(1)
		if n == 1 {
			firstAt.Store(time.Now().UnixNano())
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		// Any request landing well before the hint elapsed means the
		// client hammered instead of honoring the 429.
		if time.Since(time.Unix(0, firstAt.Load())) < 900*time.Millisecond {
			early.Add(1)
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	rep := drive(ts.Client(), ts.URL, "/v1/predict", [][]byte{[]byte(`{}`)}, 1, 1, 1500*time.Millisecond)
	if rep.Errors != 0 {
		t.Fatalf("a honored 429 must not count as an error: %+v", rep)
	}
	if rep.Retries < 1 {
		t.Fatalf("retries = %d, want the 429 re-issue counted", rep.Retries)
	}
	if early.Load() != 0 {
		t.Fatalf("%d request(s) fired before the Retry-After hint elapsed", early.Load())
	}
	if rep.StatusCounts["429"] != 1 {
		t.Fatalf("status counts missing the 429: %+v", rep.StatusCounts)
	}
}

// TestDriveShedsWhenDeadlineBeatsHint: a 429 whose hint does not fit in
// the remaining run is a shed, not a retry and not an error.
func TestDriveShedsWhenDeadlineBeatsHint(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "5")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer ts.Close()

	rep := drive(ts.Client(), ts.URL, "/v1/predict", [][]byte{[]byte(`{}`)}, 1, 1, 300*time.Millisecond)
	if rep.Shed == 0 {
		t.Fatalf("no sheds recorded against an always-429 server: %+v", rep)
	}
	if rep.Errors != 0 || rep.Retries != 0 {
		t.Fatalf("sheds misfiled as errors/retries: %+v", rep)
	}
}

func TestJudgeFleet(t *testing.T) {
	clean := FleetReport{Report: Report{Requests: 10, StatusCounts: map[string]int{"200": 10}}}
	if v := judgeFleet(&clean); !v.Pass || v.FailedNonShed != 0 {
		t.Fatalf("clean run judged %+v", v)
	}
	dirty := FleetReport{Report: Report{Requests: 10, Errors: 2, StatusCounts: map[string]int{"200": 7, "502": 1, "429": 2}}}
	v := judgeFleet(&dirty)
	if v.Pass || v.FailedNonShed != 3 {
		t.Fatalf("2 transport errors + one 502 judged %+v", v)
	}
	empty := FleetReport{}
	if v := judgeFleet(&empty); v.Pass {
		t.Fatal("zero-request run must not pass")
	}
	unkilled := FleetReport{Report: Report{Requests: 5, StatusCounts: map[string]int{"200": 5}}, KillPID: 12345}
	if v := judgeFleet(&unkilled); v.Pass {
		t.Fatal("undelivered kill signal must fail the verdict")
	}
}

func TestSumSeries(t *testing.T) {
	m := map[string]float64{
		`scout_gw_retries_total{replica="a"}`: 2,
		`scout_gw_retries_total{replica="b"}`: 3,
		"scout_gw_retries_total":              1, // unlabeled form
		`scout_gw_retries_total_other`:        99,
	}
	if got := sumSeries(m, "scout_gw_retries_total"); got != 6 {
		t.Fatalf("sumSeries = %v, want 6 (prefix must not match the _other family)", got)
	}
}

// TestLoadgenFleet drives the -fleet mode end to end against a real
// gateway in front of a real trained replica: the report carries the
// gateway's scout_gw_* telemetry and the zero-failed-non-shed verdict.
func TestLoadgenFleet(t *testing.T) {
	ts := newTestServer(t)
	g, err := gateway.New(gateway.Config{
		Replicas: []gateway.ReplicaConfig{{Name: "r0", Team: "phynet", URL: ts.URL}},
	})
	if err != nil {
		t.Fatal(err)
	}
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	reqs := corpus(5, 30, 6)
	fr, err := runFleet(gw.Client(), gw.URL, 4, 500*time.Millisecond, 0, 0, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Mode != "fleet" {
		t.Fatalf("mode = %q", fr.Mode)
	}
	if fr.Requests == 0 {
		t.Fatal("fleet run drove no traffic")
	}
	if !fr.SLO.Pass || fr.SLO.FailedNonShed != 0 {
		t.Fatalf("healthy fleet failed the SLO: %+v", fr.SLO)
	}
	if len(fr.GatewayMetrics) == 0 {
		t.Fatal("final scrape missing gateway metrics")
	}
	if _, ok := fr.GatewayMetrics[`scout_gw_upstream_requests_total{outcome="ok",replica="r0"}`]; !ok {
		if _, ok := fr.GatewayMetrics[`scout_gw_upstream_requests_total{replica="r0",outcome="ok"}`]; !ok {
			t.Fatalf("scrape has no per-replica upstream series; keys: %v", metricNames(fr.GatewayMetrics))
		}
	}
}
