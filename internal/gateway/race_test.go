package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scouts/internal/faults"
)

// The race's rules (DESIGN.md §14.2), each under a scripted upstream with
// the hedge delay pinned. Replicas are named by their URL's host, so a
// script reads as "what primary does, what hedge does". Every rule runs an
// inner loop: the interesting schedules — the timer firing as the primary
// settles — are hit by repetition, under -race.

// script is an http.RoundTripper that is one function of the request.
type script func(*http.Request) (*http.Response, error)

func (s script) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		_, _ = io.Copy(io.Discard, r.Body)
		_ = r.Body.Close()
	}
	return s(r)
}

func answer(r *http.Request, status int, body string) (*http.Response, error) {
	return &http.Response{
		StatusCode: status, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header:        http.Header{"Content-Type": {"application/json"}},
		Body:          io.NopCloser(strings.NewReader(body)),
		ContentLength: int64(len(body)), Request: r,
	}, nil
}

// sleepOrCancel is a slow upstream that, like a real transport, gives up
// when the request's context does.
func sleepOrCancel(r *http.Request, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-r.Context().Done():
		return r.Context().Err()
	}
}

// raceFixture is a one-team fleet of the named replicas over a script,
// with a title whose shard order starts primary, hedge.
func raceFixture(t *testing.T, cfg Config, s script, names ...string) (*Gateway, http.Handler, string) {
	t.Helper()
	for _, name := range names {
		cfg.Replicas = append(cfg.Replicas, ReplicaConfig{Name: name, Team: "phynet", URL: "http://" + name})
	}
	cfg.Client = &http.Client{Transport: s}
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = 1 // one round: what a response says is what race returned
	}
	if cfg.Breaker.Trip == 0 {
		cfg.Breaker = faults.ReqBreakerParams{Trip: 1 << 30, Cooldown: time.Minute}
	}
	g := newTestGateway(t, cfg)
	return g, g.Handler(), keyOwnedBy(t, g, "phynet", names[0])
}

func outcomes(g *Gateway, name, outcome string) int64 {
	return g.tel.replica(name).outcome(outcome).Value()
}

// settled waits for every replica's in-flight count to reach zero: a
// voided loser settles on its own goroutine after the response is out.
func settled(t *testing.T, g *Gateway) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for _, name := range g.order {
		for g.replicas[name].inflight.Load() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("replica %s still has %d in flight", name, g.replicas[name].inflight.Load())
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
}

func TestHedgeNotLaunchedWhenPrimaryFailsFast(t *testing.T) {
	const hedgeAfter = 100 * time.Millisecond
	g, h, title := raceFixture(t, Config{HedgeAfter: hedgeAfter}, func(r *http.Request) (*http.Response, error) {
		if r.URL.Host == "primary" {
			return nil, faults.ErrFlakyDrop
		}
		return answer(r, 200, `{"hedge":true}`)
	}, "primary", "hedge")
	for i := 0; i < 200; i++ {
		start := time.Now()
		if w := doPredict(t, h, "", title); w.Code != http.StatusBadGateway {
			t.Fatalf("fast failure answered %d: %s", w.Code, w.Body.String())
		}
		if d := time.Since(start); d >= hedgeAfter {
			t.Fatalf("a fast failure took %v: it waited out the hedge timer", d)
		}
	}
	time.Sleep(hedgeAfter + 20*time.Millisecond) // a timer left running would fire by now
	if n := g.tel.replica("hedge").hedges.Value(); n != 0 {
		t.Fatalf("%d hedges launched for primaries that had already failed", n)
	}
	if n := outcomes(g, "primary", "error"); n != 200 {
		t.Fatalf("primary recorded %d failures, want 200", n)
	}
	settled(t, g)
}

func TestHedgeAnswersWhenPrimaryFailsMidRace(t *testing.T) {
	// The primary fails only once the hedge is out, the hedge answers a
	// little later: race must wait for it rather than report the failure.
	var hedgeOut atomic.Pointer[chan struct{}]
	g, h, title := raceFixture(t, Config{HedgeAfter: time.Millisecond}, func(r *http.Request) (*http.Response, error) {
		if r.URL.Host == "primary" {
			<-*hedgeOut.Load()
			return nil, faults.ErrFlakyDrop
		}
		close(*hedgeOut.Load())
		if err := sleepOrCancel(r, time.Millisecond); err != nil {
			return nil, err
		}
		return answer(r, 200, `{"hedge":true}`)
	}, "primary", "hedge")
	for i := 0; i < 200; i++ {
		c := make(chan struct{})
		hedgeOut.Store(&c)
		w := doPredict(t, h, "", title)
		if w.Code != http.StatusOK || w.Header().Get("X-Scout-Replica") != "hedge" {
			t.Fatalf("round %d answered %d by %q: %s", i, w.Code, w.Header().Get("X-Scout-Replica"), w.Body.String())
		}
	}
	if hedges, wins := g.tel.replica("hedge").hedges.Value(), g.tel.replica("hedge").hedgeWins.Value(); hedges != 200 || wins != 200 {
		t.Fatalf("hedges %d, wins %d; want 200 each", hedges, wins)
	}
	// A primary whose failure is only booked after the hedge has won and
	// cancelled the round is void; on a busy machine a few are.
	if fails, oks := outcomes(g, "primary", "error"), outcomes(g, "hedge", "ok"); fails > 200 || oks != 200 {
		t.Fatalf("primary failures %d, hedge answers %d; want at most 200 and exactly 200", fails, oks)
	}
	settled(t, g)
}

func TestHedgeBothFailReportsThePrimary(t *testing.T) {
	// Either order of failing: the primary's failure is the round's.
	var hedgeFirst atomic.Bool
	var hedgeOut, hedgeFailed atomic.Pointer[chan struct{}]
	s := func(r *http.Request) (*http.Response, error) {
		if r.URL.Host == "primary" {
			<-*hedgeOut.Load()
			if hedgeFirst.Load() {
				<-*hedgeFailed.Load()
			}
			return nil, errors.New("primary broke")
		}
		close(*hedgeOut.Load())
		defer close(*hedgeFailed.Load())
		if !hedgeFirst.Load() {
			time.Sleep(200 * time.Microsecond)
		}
		return nil, errors.New("hedge broke")
	}
	g, h, title := raceFixture(t, Config{HedgeAfter: time.Millisecond}, s, "primary", "hedge")
	for i := 0; i < 200; i++ {
		a, b := make(chan struct{}), make(chan struct{})
		hedgeOut.Store(&a)
		hedgeFailed.Store(&b)
		hedgeFirst.Store(i%2 == 0)
		w := doPredict(t, h, "", title)
		if w.Code != http.StatusBadGateway || !strings.Contains(w.Body.String(), "primary broke") {
			t.Fatalf("round %d answered %d: %s; want a 502 naming the primary's failure", i, w.Code, w.Body.String())
		}
		<-b
	}
	settled(t, g)
	if p, hd := outcomes(g, "primary", "error"), outcomes(g, "hedge", "error"); p != 200 || hd != 200 {
		t.Fatalf("failures recorded: primary %d, hedge %d; want 200 each", p, hd)
	}
	if wins := g.tel.replica("hedge").hedgeWins.Value(); wins != 0 {
		t.Fatalf("%d hedge wins without a usable hedge answer", wins)
	}

	// One failure each on the breakers: with Trip 1, each opens exactly once.
	a, b := make(chan struct{}), make(chan struct{})
	hedgeOut.Store(&a)
	hedgeFailed.Store(&b)
	g, h, title = raceFixture(t, Config{HedgeAfter: time.Millisecond, Breaker: faults.ReqBreakerParams{Trip: 1, Cooldown: time.Minute}}, s, "primary", "hedge")
	if w := doPredict(t, h, "", title); w.Code != http.StatusBadGateway {
		t.Fatalf("answered %d", w.Code)
	}
	settled(t, g)
	for _, name := range g.order {
		if br := g.replicas[name].breaker; br.State() != faults.StateOpen || br.Trips() != 1 {
			t.Fatalf("%s breaker: %s after %d trips, want open after 1", name, br.State(), br.Trips())
		}
	}
}

func TestHedgeNeedsASecondCandidate(t *testing.T) {
	slowThenFail := func(r *http.Request) (*http.Response, error) {
		if err := sleepOrCancel(r, 3*time.Millisecond); err != nil {
			return nil, err
		}
		return nil, faults.ErrFlakyDrop
	}
	// A single-replica shard: the timer fires, finds nobody, skips nobody.
	g, h, title := raceFixture(t, Config{HedgeAfter: time.Millisecond}, slowThenFail, "primary")
	for i := 0; i < 50; i++ {
		w := doPredict(t, h, "", title)
		var eb errorBody
		if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || w.Code != http.StatusBadGateway {
			t.Fatalf("answered %d (%v): %s", w.Code, err, w.Body.String())
		}
		if want := []FleetSkip{{Replica: "primary", Reason: skipUnreachable}}; !slices.Equal(eb.FleetHealth.Skipped, want) {
			t.Fatalf("skipped = %+v, want %+v", eb.FleetHealth.Skipped, want)
		}
	}
	if n := g.tel.replica("primary").hedges.Value(); n != 0 {
		t.Fatalf("%d hedges in a one-replica shard", n)
	}

	// The next candidate draining: it is passed over and named in the
	// answer, and the hedge goes to the one after. The primary fails only
	// once that hedge is out, so the timer's pick has certainly run.
	var hedgeOut atomic.Pointer[chan struct{}]
	g, h, _ = raceFixture(t, Config{HedgeAfter: time.Millisecond}, func(r *http.Request) (*http.Response, error) {
		if r.URL.Host == "primary" {
			<-*hedgeOut.Load()
			return nil, faults.ErrFlakyDrop
		}
		close(*hedgeOut.Load())
		return nil, faults.ErrFlakyDrop
	}, "primary", "drained", "hedge")
	g.Drain("drained", false)
	title = ""
	for i := 0; title == ""; i++ {
		cand := "incident " + strconv.Itoa(i)
		if slices.Equal(g.ring.Shard(shardKey("phynet", cand, "")), []string{"primary", "drained", "hedge"}) {
			title = cand
		}
	}
	for i := 0; i < 50; i++ {
		c := make(chan struct{})
		hedgeOut.Store(&c)
		w := doPredict(t, h, "", title)
		var eb errorBody
		if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || w.Code != http.StatusBadGateway {
			t.Fatalf("answered %d (%v): %s", w.Code, err, w.Body.String())
		}
		want := []FleetSkip{
			{Replica: "drained", Reason: skipDraining},
			{Replica: "primary", Reason: skipUnreachable},
		}
		if !slices.Equal(eb.FleetHealth.Skipped, want) {
			t.Fatalf("skipped = %+v, want %+v", eb.FleetHealth.Skipped, want)
		}
	}
	if drained, hedged := g.tel.replica("drained").hedges.Value(), g.tel.replica("hedge").hedges.Value(); drained != 0 || hedged != 50 {
		t.Fatalf("hedges: %d to the draining replica, %d to the one after; want 0 and 50", drained, hedged)
	}
	settled(t, g)
}

func TestHedgeClientGoneMidRace(t *testing.T) {
	// Both replicas hang until cancelled. The client leaves at a different
	// point of each round — before the hedge timer, as it fires, after the
	// hedge is out — and the round must end there: 499, nothing recorded.
	g, h, title := raceFixture(t, Config{
		HedgeAfter: time.Millisecond,
		Breaker:    faults.ReqBreakerParams{Trip: 1, Cooldown: time.Minute}, // any recorded failure would show
	}, func(r *http.Request) (*http.Response, error) {
		<-r.Context().Done()
		return nil, r.Context().Err()
	}, "primary", "hedge")
	for i := 0; i < 200; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%9)*250*time.Microsecond)
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(predictBody(title))).WithContext(ctx)
		w := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(w, req)
		cancel()
		if w.Code != 499 {
			t.Fatalf("round %d answered %d: %s; want 499", i, w.Code, w.Body.String())
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("round %d took %v after the client left", i, d)
		}
	}
	settled(t, g)
	for _, name := range g.order {
		if br := g.replicas[name].breaker; br.State() != faults.StateClosed || br.Trips() != 0 {
			t.Fatalf("%s breaker moved: %s, %d trips", name, br.State(), br.Trips())
		}
		for _, o := range upstreamOutcomes {
			if n := outcomes(g, name, o); n != 0 {
				t.Fatalf("%s recorded %d %q outcomes for voided attempts", name, n, o)
			}
		}
	}
}

func TestHedgeTimerRacesPrimarySettling(t *testing.T) {
	// The primary fails at about the hedge delay, so the timer's callback
	// and the primary's settling contend for the race's lock. Whichever
	// order they take it in, the books must balance: a hedge was launched
	// exactly when the answer is the hedge's.
	const rounds, hedgeAfter = 500, 500 * time.Microsecond
	var round atomic.Int64
	g, h, title := raceFixture(t, Config{HedgeAfter: hedgeAfter}, func(r *http.Request) (*http.Response, error) {
		if r.URL.Host == "primary" {
			time.Sleep(hedgeAfter + time.Duration(round.Load()%5-2)*20*time.Microsecond)
			return nil, faults.ErrFlakyDrop
		}
		return answer(r, 200, `{"hedge":true}`)
	}, "primary", "hedge")
	served := int64(0)
	for i := 0; i < rounds; i++ {
		round.Store(int64(i))
		before := g.tel.replica("hedge").hedges.Value()
		w := doPredict(t, h, "", title)
		launched := g.tel.replica("hedge").hedges.Value() - before
		switch {
		case w.Code == http.StatusOK && w.Header().Get("X-Scout-Replica") == "hedge" && launched == 1:
			served++
		case w.Code == http.StatusBadGateway && launched == 0:
		default:
			t.Fatalf("round %d: answered %d by %q with %d hedges launched", i, w.Code, w.Header().Get("X-Scout-Replica"), launched)
		}
	}
	settled(t, g)
	t.Logf("%d of %d rounds were hedged", served, rounds)
	if wins, oks := g.tel.replica("hedge").hedgeWins.Value(), outcomes(g, "hedge", "ok"); wins != served || oks != served {
		t.Fatalf("%d hedged answers, %d hedge wins, %d hedge ok outcomes", served, wins, oks)
	}
	// A primary that fails as the winning hedge cancels the round is void,
	// not failed; every other one is on the books.
	if n := outcomes(g, "primary", "error"); n > rounds || n < rounds-served {
		t.Fatalf("primary recorded %d failures over %d rounds, %d of them hedged", n, rounds, served)
	}
}

// ---- panics under an attempt ----

func scrapeGateway(t *testing.T, g *Gateway) string {
	t.Helper()
	var b strings.Builder
	if err := g.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestAttemptPanicSettlesTheBooks: a transport that panics under the
// primary reaches Recover — a JSON 500, the process alive — and on its way
// the attempt gives back its budget slot and records a failure, probe slot
// included: 40 such panics do not saturate the replica, and one on the
// half-open probe does not wedge its breaker.
func TestAttemptPanicSettlesTheBooks(t *testing.T) {
	var panicking atomic.Bool
	panicking.Store(true)
	logs := &syncBuffer{}
	g, h, title := raceFixture(t, Config{
		HedgeAfter: -1,
		Breaker:    faults.ReqBreakerParams{Trip: 1 << 30, Cooldown: time.Minute},
		Logger:     log.New(logs, "", 0),
	}, func(r *http.Request) (*http.Response, error) {
		if panicking.Load() {
			panic("transport bug")
		}
		return answer(r, 200, `{"ok":true}`)
	}, "primary")
	for i := 0; i < 40; i++ { // ReplicaBudget is 32
		w := doPredict(t, h, "", title)
		var eb errorBody
		if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || w.Code != http.StatusInternalServerError || eb.Error == "" {
			t.Fatalf("panic %d answered %d (%v): %s; want the JSON 500", i, w.Code, err, w.Body.String())
		}
	}
	if n := g.replicas["primary"].inflight.Load(); n != 0 {
		t.Fatalf("%d budget slots leaked", n)
	}
	got := scrapeGateway(t, g)
	for _, want := range []string{
		`scout_gw_http_requests_total{code="500",endpoint="/v1/predict"} 40`,
		`scout_gw_http_panics_recovered_total 40`,
		`scout_gw_upstream_requests_total{outcome="error",replica="primary"} 40`,
	} {
		if !strings.Contains(got, want+"\n") {
			t.Errorf("scrape lacks %q", want)
		}
	}
	if !strings.Contains(logs.String(), "transport bug") {
		t.Errorf("panic not logged: %q", logs.String())
	}
	panicking.Store(false)
	if w := doPredict(t, h, "", title); w.Code != http.StatusOK {
		t.Fatalf("after the panics: %d %s", w.Code, w.Body.String())
	}

	// The probe slot: open the breaker, let the half-open probe panic, and
	// the next probe must still be admitted. The breaker reads a clock the
	// test winds past each cooldown.
	const cooldown = time.Second
	var clock atomic.Int64
	panicking.Store(true)
	g, h, title = raceFixture(t, Config{
		HedgeAfter: -1,
		Breaker:    faults.ReqBreakerParams{Trip: 1, Cooldown: cooldown},
		Now:        func() time.Time { return time.Unix(0, clock.Load()) },
	}, func(r *http.Request) (*http.Response, error) {
		if panicking.Load() {
			panic("transport bug")
		}
		return answer(r, 200, `{"ok":true}`)
	}, "primary")
	br := g.replicas["primary"].breaker
	doPredict(t, h, "", title) // opens it
	clock.Add(int64(cooldown))
	doPredict(t, h, "", title) // the half-open probe, panicking
	if br.State() != faults.StateOpen || br.Trips() != 2 {
		t.Fatalf("after a panicking probe the breaker is %s with %d trips, want open with 2", br.State(), br.Trips())
	}
	panicking.Store(false)
	clock.Add(int64(cooldown))
	if w := doPredict(t, h, "", title); w.Code != http.StatusOK || br.State() != faults.StateClosed {
		t.Fatalf("the next probe answered %d and left the breaker %s", w.Code, br.State())
	}
}

// TestHedgePanicIsRecovered: the hedge runs on the timer's goroutine, past
// the handler chain's Recover; a panic there must not kill the process or
// the request. It is counted and logged like a handler's, recorded as the
// hedge replica's failure, and the primary's answer is served.
func TestHedgePanicIsRecovered(t *testing.T) {
	// The primary settles only once the hedge is out (and about to panic).
	hedgeOut := make(chan struct{})
	logs := &syncBuffer{}
	g, h, title := raceFixture(t, Config{
		HedgeAfter: time.Millisecond,
		Breaker:    faults.ReqBreakerParams{Trip: 1, Cooldown: time.Minute},
		Logger:     log.New(logs, "", 0),
	}, func(r *http.Request) (*http.Response, error) {
		if r.URL.Host == "hedge" {
			close(hedgeOut)
			panic("hedge transport bug")
		}
		<-hedgeOut
		return answer(r, 200, `{"primary":true}`)
	}, "primary", "hedge")
	w := doPredict(t, h, "", title)
	if w.Code != http.StatusOK || w.Header().Get("X-Scout-Replica") != "primary" {
		t.Fatalf("answered %d by %q: %s", w.Code, w.Header().Get("X-Scout-Replica"), w.Body.String())
	}
	// The log line is the last thing the recovery does.
	for deadline := time.Now().Add(2 * time.Second); !strings.Contains(logs.String(), "hedge transport bug"); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("panic not logged: %q", logs.String())
		}
	}
	got := scrapeGateway(t, g)
	for _, want := range []string{
		`scout_gw_http_panics_recovered_total 1`,
		`scout_gw_hedges_total{replica="hedge"} 1`,
		`scout_gw_hedge_wins_total{replica="hedge"} 0`,
		`scout_gw_upstream_requests_total{outcome="error",replica="hedge"} 1`,
		`scout_gw_replica_inflight{replica="hedge"} 0`,
	} {
		if !strings.Contains(got, want+"\n") {
			t.Errorf("scrape lacks %q", want)
		}
	}
	if br := g.replicas["hedge"].breaker; br.State() != faults.StateOpen || br.Trips() != 1 {
		t.Fatalf("hedge breaker: %s, %d trips; the panic is a failure of that replica", br.State(), br.Trips())
	}

	// Primary failed, hedge panicked: the primary's failure is the round's.
	hedgeOut = make(chan struct{})
	g, h, title = raceFixture(t, Config{HedgeAfter: time.Millisecond}, func(r *http.Request) (*http.Response, error) {
		if r.URL.Host == "hedge" {
			close(hedgeOut)
			panic("hedge transport bug")
		}
		<-hedgeOut
		return nil, errors.New("primary broke")
	}, "primary", "hedge")
	if w := doPredict(t, h, "", title); w.Code != http.StatusBadGateway || !strings.Contains(w.Body.String(), "primary broke") {
		t.Fatalf("answered %d: %s", w.Code, w.Body.String())
	}
	settled(t, g)
}

// TestAttemptPanicOnFanOutIsRecovered: /v1/reload runs its attempts on
// goroutines the handler launches, past the handler chain's Recover, where
// a transport panic used to kill scoutgw. Each must be counted and logged
// like a handler's, name its replica as failed in a JSON answer, hand back
// its budget slot and record a failure on the breaker — and the gateway
// must still reload and route once the transport behaves.
func TestAttemptPanicOnFanOutIsRecovered(t *testing.T) {
	var panicking atomic.Bool
	panicking.Store(true)
	logs := &syncBuffer{}
	g, h, title := raceFixture(t, Config{
		HedgeAfter: -1,
		Logger:     log.New(logs, "", 0),
	}, func(r *http.Request) (*http.Response, error) {
		if panicking.Load() {
			panic("transport bug")
		}
		return answer(r, 200, `{"status":"ok"}`)
	}, "primary", "second")
	post := func(path, body string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return w
	}

	w := post("/v1/reload", "")
	var rb struct {
		Results []reloadResult `json:"results"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &rb); err != nil || w.Code != http.StatusBadGateway || len(rb.Results) != 2 {
		t.Fatalf("reload over a panicking transport answered %d (%v): %s; want the JSON 502", w.Code, err, w.Body.String())
	}
	for _, res := range rb.Results {
		if res.OK || res.Error != "reload attempt panicked" {
			t.Errorf("reload row %+v, want the replica reported as panicked", res)
		}
	}

	settled(t, g)
	got := scrapeGateway(t, g)
	for _, want := range []string{
		`scout_gw_http_panics_recovered_total 2`, // one per replica
		`scout_gw_upstream_requests_total{outcome="error",replica="primary"} 1`,
		`scout_gw_upstream_requests_total{outcome="error",replica="second"} 1`,
		`scout_gw_replica_inflight{replica="primary"} 0`,
		`scout_gw_replica_inflight{replica="second"} 0`,
		`scout_gw_http_requests_total{code="502",endpoint="/v1/reload"} 1`,
	} {
		if !strings.Contains(got, want+"\n") {
			t.Errorf("scrape lacks %q", want)
		}
	}
	if n := strings.Count(logs.String(), "transport bug"); n != 2 {
		t.Errorf("%d panics logged, want 2: %q", n, logs.String())
	}

	panicking.Store(false)
	if w := post("/v1/reload", ""); w.Code != http.StatusOK {
		t.Fatalf("after the panics, reload answered %d: %s", w.Code, w.Body.String())
	}
	if w := doPredict(t, h, "", title); w.Code != http.StatusOK {
		t.Fatalf("after the panics, predict answered %d: %s", w.Code, w.Body.String())
	}
}

type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestNoGoroutineUnderGatewayHandler fails if the primary attempt leaves
// the caller's goroutine again: the upstream RoundTripper must find this
// test's ServeHTTP call on its own stack.
func TestNoGoroutineUnderGatewayHandler(t *testing.T) {
	var stack string
	_, h, title := raceFixture(t, Config{}, func(r *http.Request) (*http.Response, error) {
		pcs := make([]uintptr, 64)
		frames := runtime.CallersFrames(pcs[:runtime.Callers(1, pcs)])
		var b strings.Builder
		for more := true; more; {
			var f runtime.Frame
			f, more = frames.Next()
			b.WriteString(f.Function + "\n")
		}
		stack = b.String()
		return answer(r, 200, `{"ok":true}`)
	}, "primary", "hedge")
	if w := doPredict(t, h, "", title); w.Code != http.StatusOK {
		t.Fatalf("answered %d: %s", w.Code, w.Body.String())
	}
	// The test's own frame, not the script closure's ("….func1").
	if !strings.Contains(stack, ".TestNoGoroutineUnderGatewayHandler\n") {
		t.Fatalf("the primary attempt ran on a goroutine other than its caller's; its stack:\n%s", stack)
	}
}

// ---- send / relay ----

func TestQueryValueMatchesParseQuery(t *testing.T) {
	for _, q := range []string{
		"", "team=phynet", "x=1&team=phynet", "team=a&team=b", "team", "team=", "=x", "&&team=p%68ynet&",
		"te%61m=escaped+key", "team=%zz&team=second", "a;b=1&team=after", "team=a;b&team=c", "other=team",
	} {
		want, _ := url.ParseQuery(q)
		if got := queryValue(q, "team"); got != want.Get("team") {
			t.Errorf("queryValue(%q) = %q, ParseQuery says %q", q, got, want.Get("team"))
		}
	}
}

// TestSendReadsDeclaredLengthUnderTheCap: a declared Content-Length is
// read into one buffer of that size, a short body is an error, and the
// cap holds whether the length was declared or not.
func TestSendReadsDeclaredLengthUnderTheCap(t *testing.T) {
	var resp func(r *http.Request) *http.Response
	g, _, _ := raceFixture(t, Config{}, func(r *http.Request) (*http.Response, error) { return resp(r), nil }, "a")
	body := func(declared int64, actual io.Reader) func(*http.Request) *http.Response {
		return func(r *http.Request) *http.Response {
			return &http.Response{StatusCode: 200, Header: http.Header{}, Body: io.NopCloser(actual), ContentLength: declared, Request: r}
		}
	}
	send := func() upstreamResult {
		return g.send(context.Background(), g.replicas["a"], http.MethodGet, "/v1/health", nil)
	}

	resp = body(5, strings.NewReader("hello"))
	if res := send(); res.err != nil || string(res.body) != "hello" || cap(res.body) != 5 {
		t.Fatalf("declared 5: %q (cap %d), err %v", res.body, cap(res.body), res.err)
	}
	resp = body(-1, strings.NewReader("hello"))
	if res := send(); res.err != nil || string(res.body) != "hello" {
		t.Fatalf("undeclared: %q, err %v", res.body, res.err)
	}
	resp = body(0, http.NoBody)
	if res := send(); res.err != nil || len(res.body) != 0 {
		t.Fatalf("declared 0: %q, err %v", res.body, res.err)
	}
	resp = body(9, strings.NewReader("short"))
	if res := send(); !errors.Is(res.err, io.ErrUnexpectedEOF) {
		t.Fatalf("a body shorter than declared: err %v, want unexpected EOF", res.err)
	}
	resp = body(maxUpstreamBody+1, strings.NewReader("never read"))
	if res := send(); res.err == nil || !strings.Contains(res.err.Error(), "exceeds") {
		t.Fatalf("declared over the cap: err %v", res.err)
	}
	resp = body(-1, io.LimitReader(zeros{}, maxUpstreamBody+1))
	if res := send(); res.err == nil || !strings.Contains(res.err.Error(), "exceeds") {
		t.Fatalf("undeclared over the cap: err %v", res.err)
	}
}

type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}
