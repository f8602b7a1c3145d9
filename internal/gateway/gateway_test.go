package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"scouts/internal/faults"
	"scouts/internal/serving"
)

// ---- ring ----

func TestRingShardOrderAndCoverage(t *testing.T) {
	r := newRing([]string{"a", "b", "c"})
	seen := map[string]int{}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("incident-%d", i)
		order := r.Shard(key)
		if len(order) != 3 {
			t.Fatalf("Shard(%q) returned %d candidates, want 3", key, len(order))
		}
		distinct := map[string]bool{}
		for _, n := range order {
			distinct[n] = true
		}
		if len(distinct) != 3 {
			t.Fatalf("Shard(%q) repeated a replica: %v", key, order)
		}
		seen[order[0]]++
		// Stability: the same key shards identically every time.
		again := r.Shard(key)
		for j := range order {
			if order[j] != again[j] {
				t.Fatalf("Shard(%q) unstable: %v then %v", key, order, again)
			}
		}
	}
	for _, name := range []string{"a", "b", "c"} {
		if seen[name] < 100 {
			t.Fatalf("replica %s owns only %d/1000 keys; vnodes too clumpy (%v)", name, seen[name], seen)
		}
	}
}

func TestRingRemovalMovesOnlyOrphanedKeys(t *testing.T) {
	before := newRing([]string{"a", "b", "c"})
	after := newRing([]string{"a", "c"})
	moved := 0
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("incident-%d", i)
		was, is := before.Shard(key)[0], after.Shard(key)[0]
		if was == "b" {
			continue // orphaned keys must move somewhere
		}
		if was != is {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d keys moved owners despite their owner surviving the removal", moved)
	}
}

// ---- backoff / Retry-After ----

func TestBackoffDelayHonorsRetryAfterHint(t *testing.T) {
	b := newBackoffSource(1)
	d := b.delay(1, 25*time.Millisecond, 2*time.Second, time.Second)
	if d < time.Second || d > 2*time.Second {
		t.Fatalf("delay with 1s hint = %v, want within [1s, 2s]", d)
	}
	// The hint is capped at max: a hostile Retry-After cannot park us.
	d = b.delay(1, 25*time.Millisecond, 100*time.Millisecond, time.Hour)
	if d > 100*time.Millisecond {
		t.Fatalf("hinted delay %v exceeds the max cap", d)
	}
}

func TestBackoffDelayGrowsWithJitter(t *testing.T) {
	b := newBackoffSource(7)
	for attempt := 1; attempt <= 6; attempt++ {
		d := b.delay(attempt, 25*time.Millisecond, time.Second, 0)
		ceiling := min(25*time.Millisecond<<(attempt-1), time.Second)
		if d < ceiling/2 || d > ceiling {
			t.Fatalf("attempt %d delay %v outside equal-jitter range [%v, %v]", attempt, d, ceiling/2, ceiling)
		}
	}
}

func TestParseRetryAfter(t *testing.T) {
	h := http.Header{}
	if d := ParseRetryAfter(h); d != 0 {
		t.Fatalf("missing header parsed as %v", d)
	}
	h.Set("Retry-After", "3")
	if d := ParseRetryAfter(h); d != 3*time.Second {
		t.Fatalf("Retry-After 3 parsed as %v", d)
	}
	h.Set("Retry-After", "Wed, 21 Oct 2015 07:28:00 GMT")
	if d := ParseRetryAfter(h); d != 0 {
		t.Fatalf("HTTP-date form should be ignored, got %v", d)
	}
}

// ---- latency window ----

func TestLatencyWindowP99(t *testing.T) {
	w := newLatencyWindow()
	if w.P99() != 0 {
		t.Fatal("empty window must report 0 (no adaptive hedge yet)")
	}
	for i := 1; i <= 100; i++ {
		w.Observe(time.Duration(i) * time.Millisecond)
	}
	p99 := w.P99()
	if p99 < 95*time.Millisecond || p99 > 100*time.Millisecond {
		t.Fatalf("p99 of 1..100ms = %v", p99)
	}
}

// ---- integration helpers ----

// fakeReplica is an httptest-backed stand-in for one scoutd.
type fakeReplica struct {
	ts      *httptest.Server
	hits    atomic.Int64
	reloads atomic.Int64
}

func newFakeReplica(handler func(w http.ResponseWriter, r *http.Request)) *fakeReplica {
	f := &fakeReplica{}
	f.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/reload" {
			f.reloads.Add(1)
		} else {
			f.hits.Add(1)
		}
		handler(w, r)
	}))
	return f
}

func okJSON(body string) func(w http.ResponseWriter, r *http.Request) {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, body)
	}
}

func newTestGateway(t *testing.T, cfg Config) *Gateway {
	t.Helper()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// keyOwnedBy finds a predict title whose shard owner is the wanted
// replica, so tests can steer the first attempt deterministically.
func keyOwnedBy(t *testing.T, g *Gateway, team, want string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		title := fmt.Sprintf("incident %d", i)
		if g.ring.Shard(shardKey(team, title, ""))[0] == want {
			return title
		}
	}
	t.Fatalf("no key owned by %s found", want)
	return ""
}

func predictBody(title string) []byte {
	b, _ := json.Marshal(serving.PredictRequest{Title: title, Time: 10})
	return b
}

func doPredict(t *testing.T, h http.Handler, team, title string) *httptest.ResponseRecorder {
	t.Helper()
	url := "/v1/predict"
	if team != "" {
		url += "?team=" + team
	}
	req := httptest.NewRequest(http.MethodPost, url, bytes.NewReader(predictBody(title)))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// ---- forwarding behavior ----

func TestPredictProxiesVerbatim(t *testing.T) {
	const answer = `{"team":"phynet","verdict":"responsible","confidence":0.91}` + "\n"
	rep := newFakeReplica(okJSON(answer))
	defer rep.ts.Close()
	g := newTestGateway(t, Config{Replicas: []ReplicaConfig{{Name: "a", Team: "phynet", URL: rep.ts.URL}}})

	w := doPredict(t, g.Handler(), "", "incident 1") // single-team fleet: team optional
	if w.Code != http.StatusOK {
		t.Fatalf("predict answered %d: %s", w.Code, w.Body.String())
	}
	if w.Body.String() != answer {
		t.Fatalf("gateway altered the replica's bytes:\n got %q\nwant %q", w.Body.String(), answer)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if got := w.Header().Get("X-Scout-Replica"); got != "a" {
		t.Fatalf("X-Scout-Replica = %q, want a", got)
	}
}

// TestInjectedClockTimesTheGateway: every duration the gateway records is
// read off Config.Now. Under a clock that advances 5 ms a reading, the
// upstream attempt reads it twice back to back (5 ms), and the request, as
// the spine times it, spans those two and the breaker's admit and record.
func TestInjectedClockTimesTheGateway(t *testing.T) {
	rep := newFakeReplica(okJSON(`{"ok":true}`))
	defer rep.ts.Close()
	var clock atomic.Int64
	g := newTestGateway(t, Config{
		Replicas:    []ReplicaConfig{{Name: "a", Team: "phynet", URL: rep.ts.URL}},
		MaxAttempts: 1, HedgeAfter: -1,
		Now: func() time.Time { return time.Unix(0, clock.Add(int64(5*time.Millisecond))) },
	})
	h := g.Handler()
	if w := doPredict(t, h, "", "incident 1"); w.Code != http.StatusOK {
		t.Fatalf("predict answered %d: %s", w.Code, w.Body.String())
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, want := range []string{
		"scout_gw_upstream_duration_seconds_sum 0.005\n",
		`scout_gw_http_request_duration_seconds_sum{endpoint="/v1/predict"} 0.025` + "\n",
	} {
		if !strings.Contains(w.Body.String(), want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}

func TestFailoverToNextReplica(t *testing.T) {
	live := newFakeReplica(okJSON(`{"ok":true}`))
	defer live.ts.Close()
	dead := newFakeReplica(okJSON(`{}`))
	dead.ts.Close() // connection refused from the start

	g := newTestGateway(t, Config{
		Replicas: []ReplicaConfig{
			{Name: "dead", Team: "phynet", URL: dead.ts.URL},
			{Name: "live", Team: "phynet", URL: live.ts.URL},
		},
		MaxAttempts: 3,
		RetryBase:   time.Millisecond, RetryMax: 5 * time.Millisecond,
		HedgeAfter: -1, // isolate the retry path
		Breaker:    faults.ReqBreakerParams{Trip: 2, Cooldown: time.Minute},
	})
	h := g.Handler()
	title := keyOwnedBy(t, g, "phynet", "dead")

	w := doPredict(t, h, "phynet", title)
	if w.Code != http.StatusOK {
		t.Fatalf("failover answered %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Scout-Replica"); got != "live" {
		t.Fatalf("answered by %q, want live", got)
	}
	if n := g.tel.replica("live").retries.Value(); n != 1 {
		t.Fatalf("live retries = %d, want 1", n)
	}
	if n := g.tel.replica("dead").outcome("error").Value(); n != 1 {
		t.Fatalf("dead error outcomes = %d, want 1", n)
	}

	// A second failed attempt trips the dead replica's breaker (Trip=2);
	// after that the gateway routes around it without even dialing.
	_ = doPredict(t, h, "phynet", title)
	if st := g.replicas["dead"].breaker.State(); st != faults.StateOpen {
		t.Fatalf("dead breaker = %s after %d failures, want open", st, 2)
	}
	dials := g.tel.replica("dead").outcome("error").Value()
	w = doPredict(t, h, "phynet", title)
	if w.Code != http.StatusOK {
		t.Fatalf("open-breaker routing answered %d", w.Code)
	}
	if n := g.tel.replica("dead").outcome("error").Value(); n != dials {
		t.Fatalf("open breaker still dialed the dead replica (%d -> %d errors)", dials, n)
	}
}

func TestBusyReplicaRetriesElsewhereAndBreakerStaysClosed(t *testing.T) {
	busy := newFakeReplica(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		_, _ = io.WriteString(w, `{"error":"at capacity"}`)
	})
	defer busy.ts.Close()
	calm := newFakeReplica(okJSON(`{"ok":true}`))
	defer calm.ts.Close()

	g := newTestGateway(t, Config{
		Replicas: []ReplicaConfig{
			{Name: "busy", Team: "phynet", URL: busy.ts.URL},
			{Name: "calm", Team: "phynet", URL: calm.ts.URL},
		},
		MaxAttempts: 3,
		RetryBase:   time.Millisecond, RetryMax: 10 * time.Millisecond, // caps the honored 1s hint
		HedgeAfter: -1,
		Breaker:    faults.ReqBreakerParams{Trip: 2, Cooldown: time.Minute},
	})
	title := keyOwnedBy(t, g, "phynet", "busy")
	w := doPredict(t, g.Handler(), "phynet", title)
	if w.Code != http.StatusOK {
		t.Fatalf("retry-around-busy answered %d: %s", w.Code, w.Body.String())
	}
	if n := g.tel.replica("busy").outcome("busy").Value(); n != 1 {
		t.Fatalf("busy outcomes = %d, want 1", n)
	}
	// A 429 is a live replica shedding — it must not feed the breaker.
	if st := g.replicas["busy"].breaker.State(); st != faults.StateClosed {
		t.Fatalf("breaker = %s after a 429, want closed", st)
	}
}

func TestBreakerRecoversThroughProbe(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	rep := newFakeReplica(func(w http.ResponseWriter, _ *http.Request) {
		if failing.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, `{"ok":true}`)
	})
	defer rep.ts.Close()

	g := newTestGateway(t, Config{
		Replicas:    []ReplicaConfig{{Name: "a", Team: "phynet", URL: rep.ts.URL}},
		MaxAttempts: 1, HedgeAfter: -1,
		Breaker: faults.ReqBreakerParams{Trip: 2, Cooldown: 30 * time.Millisecond},
	})
	h := g.Handler()
	for i := 0; i < 2; i++ {
		if w := doPredict(t, h, "", "incident"); w.Code != http.StatusBadGateway {
			t.Fatalf("failing replica answered %d, want 502 relayed as gateway failure", w.Code)
		}
	}
	if st := g.replicas["a"].breaker.State(); st != faults.StateOpen {
		t.Fatalf("breaker = %s, want open", st)
	}
	// Inside the cooldown the gateway does not dial at all.
	dials := rep.hits.Load()
	if w := doPredict(t, h, "", "incident"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("open-breaker single-replica predict = %d, want 503", w.Code)
	}
	if rep.hits.Load() != dials {
		t.Fatal("open breaker still dialed the replica")
	}

	failing.Store(false)
	time.Sleep(40 * time.Millisecond) // past the cooldown: next request is the probe
	if w := doPredict(t, h, "", "incident"); w.Code != http.StatusOK {
		t.Fatalf("probe request answered %d, want 200", w.Code)
	}
	if st := g.replicas["a"].breaker.State(); st != faults.StateClosed {
		t.Fatalf("breaker = %s after successful probe, want closed", st)
	}
}

func TestHedgeWinsAndLoserIsCancelledWithoutBreakerPoison(t *testing.T) {
	var slowCancelled atomic.Bool
	slow := newFakeReplica(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body like a real replica would; the server can only
		// watch for client disconnects once the request is consumed.
		_, _ = io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
			slowCancelled.Store(true)
			return
		case <-time.After(2 * time.Second):
		}
		_, _ = io.WriteString(w, `{"slow":true}`)
	})
	defer slow.ts.Close()
	fast := newFakeReplica(okJSON(`{"fast":true}`))
	defer fast.ts.Close()

	g := newTestGateway(t, Config{
		Replicas: []ReplicaConfig{
			{Name: "slow", Team: "phynet", URL: slow.ts.URL},
			{Name: "fast", Team: "phynet", URL: fast.ts.URL},
		},
		MaxAttempts: 2,
		HedgeAfter:  10 * time.Millisecond,
		Breaker:     faults.ReqBreakerParams{Trip: 1, Cooldown: time.Minute},
	})
	title := keyOwnedBy(t, g, "phynet", "slow")
	start := time.Now()
	w := doPredict(t, g.Handler(), "phynet", title)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "fast") {
		t.Fatalf("hedged predict answered %d %q", w.Code, w.Body.String())
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("hedge did not rescue the tail: %v", elapsed)
	}
	if n := g.tel.replica("fast").hedges.Value(); n != 1 {
		t.Fatalf("hedges = %d, want 1", n)
	}
	if n := g.tel.replica("fast").hedgeWins.Value(); n != 1 {
		t.Fatalf("hedge wins = %d, want 1", n)
	}
	// The loser was cancelled, and a cancelled hedge loser must not count
	// as a replica failure (Trip=1 would open it instantly).
	deadline := time.Now().Add(time.Second)
	for !slowCancelled.Load() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !slowCancelled.Load() {
		t.Fatal("loser request was never cancelled")
	}
	time.Sleep(50 * time.Millisecond) // let the loser's finish() settle
	if st := g.replicas["slow"].breaker.State(); st != faults.StateClosed {
		t.Fatalf("loser cancellation poisoned the breaker: %s", st)
	}
	if n := g.replicas["slow"].breaker.Trips(); n != 0 {
		t.Fatalf("loser cancellation tripped the breaker %d times", n)
	}
}

func TestSaturatedFleetShedsWith429(t *testing.T) {
	gate := make(chan struct{})
	rep := newFakeReplica(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-gate:
		case <-r.Context().Done():
			return
		}
		_, _ = io.WriteString(w, `{"ok":true}`)
	})
	defer rep.ts.Close()
	defer close(gate)

	g := newTestGateway(t, Config{
		Replicas:      []ReplicaConfig{{Name: "a", Team: "phynet", URL: rep.ts.URL}},
		MaxAttempts:   1,
		ReplicaBudget: 1,
		HedgeAfter:    -1,
	})
	h := g.Handler()

	firstDone := make(chan int, 1)
	go func() {
		w := doPredict(t, h, "", "occupier")
		firstDone <- w.Code
	}()
	deadline := time.Now().Add(time.Second)
	for g.replicas["a"].inflight.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if g.replicas["a"].inflight.Load() == 0 {
		t.Fatal("occupier never reached the replica")
	}

	w := doPredict(t, h, "", "shed me")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated fleet answered %d, want 429: %s", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("shed response must carry Retry-After")
	}
	var eb errorBody
	if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil {
		t.Fatalf("shed body is not JSON: %v", err)
	}
	if eb.FleetHealth == nil || len(eb.FleetHealth.Skipped) == 0 || eb.FleetHealth.Skipped[0].Reason != skipSaturated {
		t.Fatalf("shed body must name the saturated replica: %+v", eb.FleetHealth)
	}
	if g.tel.shed.Value() != 1 {
		t.Fatalf("shed counter = %d, want 1", g.tel.shed.Value())
	}

	gate <- struct{}{}
	if code := <-firstDone; code != http.StatusOK {
		t.Fatalf("occupier answered %d", code)
	}
}

func TestDrainAndRestore(t *testing.T) {
	rep := newFakeReplica(okJSON(`{"ok":true}`))
	defer rep.ts.Close()
	g := newTestGateway(t, Config{
		Replicas:    []ReplicaConfig{{Name: "a", Team: "phynet", URL: rep.ts.URL}},
		MaxAttempts: 1, HedgeAfter: -1,
	})
	h := g.Handler()

	drain := func(body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/drain", strings.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w
	}
	if w := drain(`{"replica":"a"}`); w.Code != http.StatusOK {
		t.Fatalf("drain answered %d: %s", w.Code, w.Body.String())
	}
	if w := doPredict(t, h, "", "incident"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("drained fleet answered %d, want 503", w.Code)
	}
	if rep.hits.Load() != 0 {
		t.Fatal("draining replica still received traffic")
	}
	if w := drain(`{"replica":"a","restore":true}`); w.Code != http.StatusOK {
		t.Fatalf("restore answered %d", w.Code)
	}
	if w := doPredict(t, h, "", "incident"); w.Code != http.StatusOK {
		t.Fatalf("restored fleet answered %d", w.Code)
	}
	if w := drain(`{"replica":"nope"}`); w.Code != http.StatusNotFound {
		t.Fatalf("unknown replica drain answered %d", w.Code)
	}
}

// TestNewRejectsBadFleets: New refuses a fleet it could not serve, naming
// the replica at fault, before anything listens.
func TestNewRejectsBadFleets(t *testing.T) {
	rc := func(name, team, url string) ReplicaConfig { return ReplicaConfig{Name: name, Team: team, URL: url} }
	for _, tc := range []struct {
		name     string
		replicas []ReplicaConfig
		want     string // in the error; "" means New accepts the fleet
	}{
		{"one team", []ReplicaConfig{rc("a", "phynet", "http://h:1"), rc("b", "phynet", "https://h:2/")}, ""},
		{"no replicas", nil, "no replicas"},
		{"missing name", []ReplicaConfig{rc("", "phynet", "http://h:1")}, "needs name, team and url"},
		{"missing team", []ReplicaConfig{rc("a", "", "http://h:1")}, "needs name, team and url"},
		{"missing url", []ReplicaConfig{rc("a", "phynet", "")}, "needs name, team and url"},
		{"duplicate name", []ReplicaConfig{rc("a", "phynet", "http://h:1"), rc("a", "phynet", "http://h:2")}, `duplicate replica name "a"`},
		{"two teams", []ReplicaConfig{rc("a", "phynet", "http://h:1"), rc("b", "storage", "http://h:2")}, `replica "b" serves team "storage", the fleet serves "phynet"`},
		{"scheme-less url", []ReplicaConfig{rc("a", "phynet", "localhost:8081")}, `replica "a": url "localhost:8081"`},
		{"other scheme", []ReplicaConfig{rc("a", "phynet", "ftp://h:1")}, `replica "a": url "ftp://h:1"`},
		{"no host", []ReplicaConfig{rc("a", "phynet", "http:///v1")}, `replica "a": url "http:///v1"`},
		{"unparseable url", []ReplicaConfig{rc("a", "phynet", "http://h:1/%zz")}, `replica "a": parse`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(Config{Replicas: tc.replicas})
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("New rejected a valid fleet: %v", err)
			case tc.want != "" && err == nil:
				t.Fatalf("New accepted %+v", tc.replicas)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("error %q does not say %q", err, tc.want)
			}
		})
	}
}

func TestReloadFansOutOnceWithoutRetry(t *testing.T) {
	ok1 := newFakeReplica(okJSON(`{"status":"ok"}`))
	defer ok1.ts.Close()
	bad := newFakeReplica(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	})
	defer bad.ts.Close()

	g := newTestGateway(t, Config{
		Replicas: []ReplicaConfig{
			{Name: "good", Team: "phynet", URL: ok1.ts.URL},
			{Name: "bad", Team: "phynet", URL: bad.ts.URL},
		},
		MaxAttempts: 3, // must NOT apply to reload
		HedgeAfter:  -1,
	})
	req := httptest.NewRequest(http.MethodPost, "/v1/reload", nil)
	w := httptest.NewRecorder()
	g.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusBadGateway {
		t.Fatalf("partial reload answered %d, want 502", w.Code)
	}
	if n := ok1.reloads.Load(); n != 1 {
		t.Fatalf("good replica reloaded %d times, want exactly 1", n)
	}
	if n := bad.reloads.Load(); n != 1 {
		t.Fatalf("failed reload must not retry: %d calls", n)
	}
}

func TestProberUpdatesHealthAndBreaker(t *testing.T) {
	var failing atomic.Bool
	rep := newFakeReplica(func(w http.ResponseWriter, _ *http.Request) {
		if failing.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		_, _ = io.WriteString(w, `{"status":"ok"}`)
	})
	defer rep.ts.Close()

	g := newTestGateway(t, Config{
		Replicas: []ReplicaConfig{{Name: "a", Team: "phynet", URL: rep.ts.URL}},
		Breaker:  faults.ReqBreakerParams{Trip: 2, Cooldown: 10 * time.Millisecond},
	})
	ctx := context.Background()
	g.probeAll(ctx)
	if !g.replicas["a"].healthy.Load() {
		t.Fatal("healthy replica probed unhealthy")
	}
	failing.Store(true)
	g.probeAll(ctx)
	g.probeAll(ctx)
	if g.replicas["a"].healthy.Load() {
		t.Fatal("failing replica still marked healthy")
	}
	if st := g.replicas["a"].breaker.State(); st != faults.StateOpen {
		t.Fatalf("probe failures must feed the breaker: %s", st)
	}
	// Recovery: past the cooldown the prober takes the probe slot itself.
	failing.Store(false)
	time.Sleep(15 * time.Millisecond)
	g.probeAll(ctx)
	if st := g.replicas["a"].breaker.State(); st != faults.StateClosed {
		t.Fatalf("prober did not recover the breaker: %s", st)
	}
	if n := g.tel.replica("a").probeFail.Value(); n != 2 {
		t.Fatalf("probe failures = %d, want 2", n)
	}
}

func TestGatewayJSON404AndHealth(t *testing.T) {
	rep := newFakeReplica(okJSON(`{}`))
	defer rep.ts.Close()
	g := newTestGateway(t, Config{Replicas: []ReplicaConfig{{Name: "a", Team: "phynet", URL: rep.ts.URL}}})
	h := g.Handler()

	req := httptest.NewRequest(http.MethodGet, "/nope", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusNotFound || w.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("catch-all: %d %q", w.Code, w.Header().Get("Content-Type"))
	}

	req = httptest.NewRequest(http.MethodGet, "/v1/health", nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("health answered %d", w.Code)
	}
	var body struct {
		Status   string          `json:"status"`
		Replicas []ReplicaHealth `json:"replicas"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ok" || len(body.Replicas) != 1 || body.Replicas[0].Breaker != "closed" {
		t.Fatalf("health body: %s", w.Body.String())
	}

	req = httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "scout_gw_replica_breaker_state") {
		t.Fatalf("metrics exposition missing gateway series (%d)", w.Code)
	}
}

func TestPredictRejectsUnknownFieldsAndUnknownTeam(t *testing.T) {
	rep := newFakeReplica(okJSON(`{}`))
	defer rep.ts.Close()
	g := newTestGateway(t, Config{Replicas: []ReplicaConfig{{Name: "a", Team: "phynet", URL: rep.ts.URL}}})
	h := g.Handler()

	req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(`{"title":"x","time":1,"tittle":"typo"}`))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("unknown field answered %d", w.Code)
	}

	w = doPredict(t, h, "nosuchteam", "incident")
	if w.Code != http.StatusNotFound {
		t.Fatalf("unknown team answered %d", w.Code)
	}
	if rep.hits.Load() != 0 {
		t.Fatal("rejected requests must not reach replicas")
	}
}
