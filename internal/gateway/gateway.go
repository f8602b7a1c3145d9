// Package gateway is the fleet front door: it consistent-hash-shards
// incidents across a set of scoutd replicas of one team's Scout — the
// team's failover set — and keeps answering while parts of the fleet
// misbehave. Per-replica circuit breakers stop
// traffic to replicas that fail repeatedly, bounded in-flight budgets
// spill hot shards to the next ring candidate instead of queueing,
// failed attempts retry with jittered exponential backoff on a
// different replica, and slow attempts are hedged — a second request to
// another replica after a p99-derived delay, first success wins, loser
// cancelled. Degradation is explicit: partial answers carry a
// fleet_health block naming every replica that was skipped and why.
package gateway

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math/bits"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"scouts/internal/faults"
	"scouts/internal/httpx"
	"scouts/internal/telemetry"
)

// Config sizes the gateway. The zero value of every knob means "use the
// default in parentheses"; set HedgeAfter negative to disable hedging.
type Config struct {
	// Replicas is the fleet: every entry must have a unique Name, the same
	// non-empty Team as the others and an http(s) URL with a host. A fleet
	// is one team's failover set.
	Replicas []ReplicaConfig

	// MaxAttempts bounds tries per retriable request, first attempt
	// included (3).
	MaxAttempts int
	// RetryBase / RetryMax bound the jittered exponential backoff between
	// attempts (25ms / 1s).
	RetryBase time.Duration
	RetryMax  time.Duration
	// PerTryTimeout bounds each upstream attempt (5s).
	PerTryTimeout time.Duration
	// ReplicaBudget bounds in-flight requests per replica; beyond it the
	// shard spills to the next ring candidate, and when the whole
	// candidate chain is saturated the client is shed with 429 (32).
	ReplicaBudget int64
	// HedgeAfter is the delay before a slow attempt is hedged to another
	// replica. 0 means adaptive: the observed upstream p99, clamped to
	// [5ms, 500ms], with 100ms until enough samples exist. Negative
	// disables hedging.
	HedgeAfter time.Duration
	// Breaker tunes the per-replica circuit breakers (Trip 5, Cooldown 2s).
	Breaker faults.ReqBreakerParams
	// ProbeInterval is the active health-probe period for RunProber (1s).
	ProbeInterval time.Duration
	// Seed seeds the backoff jitter; a fixed seed replays the same
	// schedule (1).
	Seed int64

	// Client's Transport carries upstream requests (http.DefaultTransport
	// when nil); a nil Client uses a dedicated transport that asks for no
	// compression. The Transport may be any http.RoundTripper: tests
	// script upstream faults there. Requests go to it directly, so New
	// refuses a Client that sets anything else: PerTryTimeout is the
	// timeout, there are no cookies, and an upstream reply is relayed,
	// never followed.
	Client *http.Client
	// Now is the gateway's clock (time.Now). Injected so library code
	// never reads the wall clock directly and tests control latency
	// measurements.
	Now func() time.Time
	// Logger receives operational lines; nil discards.
	Logger *log.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 25 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = time.Second
	}
	if c.PerTryTimeout <= 0 {
		c.PerTryTimeout = 5 * time.Second
	}
	if c.ReplicaBudget <= 0 {
		c.ReplicaBudget = 32
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Hedge-delay bounds for the adaptive (HedgeAfter == 0) mode.
const (
	hedgeDelayMin     = 5 * time.Millisecond
	hedgeDelayMax     = 500 * time.Millisecond
	hedgeDelayDefault = 100 * time.Millisecond
)

// maxUpstreamBody caps how much of a replica's response the gateway will
// buffer (batch responses are the largest legitimate payload).
const maxUpstreamBody = 16 << 20

// maxReplicas bounds a fleet: a round's tried set is one bit per
// replica in a uint64.
const maxReplicas = 64

// upstreamPaths are the replica routes the gateway calls; New builds
// every replica's URL for each.
var upstreamPaths = []string{"/v1/predict", "/v1/health", "/v1/reload"}

// The header maps of upstream requests, with a body and without: shared
// by every request and read-only, as the transport only reads them.
var (
	jsonRequestHeader  = http.Header{"Content-Type": {"application/json"}}
	emptyRequestHeader = http.Header{}
)

// Gateway routes incidents to a scoutd fleet. Build with New, mount
// Handler(), and optionally run RunProber for active health checking.
type Gateway struct {
	cfg       Config
	transport http.RoundTripper
	now       func() time.Time
	logger    *log.Logger

	replicas map[string]*replica
	reps     []*replica // config order, indexed as the ring indexes names
	order    []string   // replica names, config order
	team     string     // the one team every replica serves
	ring     *ring
	// races recycles raceStates, hedge timer included.
	races sync.Pool

	backoff *backoffSource
	lat     *latencyWindow
	tel     *gwMetrics
	// web is the HTTP spine shared with the serving layer.
	web *httpx.Spine
}

// New validates the fleet config and builds the gateway.
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("gateway: no replicas configured")
	}
	if len(cfg.Replicas) > maxReplicas {
		return nil, fmt.Errorf("gateway: %d replicas configured, at most %d", len(cfg.Replicas), maxReplicas)
	}
	g := &Gateway{
		cfg:      cfg,
		now:      cfg.Now,
		logger:   cfg.Logger,
		replicas: make(map[string]*replica, len(cfg.Replicas)),
		team:     cfg.Replicas[0].Team,
		backoff:  newBackoffSource(cfg.Seed),
		lat:      newLatencyWindow(),
	}
	switch c := cfg.Client; {
	case c == nil:
		g.transport = &http.Transport{MaxIdleConnsPerHost: 16, DisableCompression: true}
	case c.Timeout != 0 || c.Jar != nil || c.CheckRedirect != nil:
		return nil, errors.New("gateway: Config.Client may set only Transport: PerTryTimeout bounds each attempt, and upstream replies are relayed, never followed")
	case c.Transport == nil:
		g.transport = http.DefaultTransport
	default:
		g.transport = c.Transport
	}
	if g.logger == nil {
		g.logger = log.New(io.Discard, "", 0)
	}
	for i, rc := range cfg.Replicas {
		if rc.Name == "" || rc.Team == "" || rc.URL == "" {
			return nil, fmt.Errorf("gateway: replica needs name, team and url (got %+v)", rc)
		}
		if _, dup := g.replicas[rc.Name]; dup {
			return nil, fmt.Errorf("gateway: duplicate replica name %q", rc.Name)
		}
		if rc.Team != g.team {
			return nil, fmt.Errorf("gateway: replica %q serves team %q, the fleet serves %q: one fleet is one team's", rc.Name, rc.Team, g.team)
		}
		base, err := url.Parse(rc.URL)
		if err != nil {
			return nil, fmt.Errorf("gateway: replica %q: %w", rc.Name, err)
		}
		// "localhost:8081" parses, as scheme "localhost" with no host, and
		// would fail every request it was sent.
		if (base.Scheme != "http" && base.Scheme != "https") || base.Host == "" {
			return nil, fmt.Errorf("gateway: replica %q: url %q is not http(s)://host[:port]", rc.Name, rc.URL)
		}
		// Client.Do would send them as basic auth; the transport does not.
		if base.User != nil {
			return nil, fmt.Errorf("gateway: replica %q: url %q carries credentials, which the gateway does not send", rc.Name, rc.URL)
		}
		base.Host = strings.TrimSuffix(base.Host, ":") // as http.NewRequest does
		rep := &replica{
			cfg: rc, bit: 1 << i, urls: make(map[string]*url.URL, len(upstreamPaths)),
			nameHeader: []string{rc.Name},
			breaker:    faults.NewReqBreaker(cfg.Breaker, cfg.Now),
		}
		for _, path := range upstreamPaths {
			u := *base
			u.Path += path
			rep.urls[path] = &u
		}
		rep.healthy.Store(true) // optimistic until the first probe says otherwise
		g.replicas[rc.Name] = rep
		g.order = append(g.order, rc.Name)
		g.reps = append(g.reps, rep)
	}
	g.ring = newRing(g.order)
	g.races.New = func() any {
		st := &raceState{g: g}
		st.timer = time.AfterFunc(time.Hour, st.launchHedge)
		st.timer.Stop()
		return st
	}
	g.tel = newGwMetrics(g.reps)
	g.web = httpx.New(g.tel.reg, "scout_gw_http", gwEndpoints, g.logger)
	return g, nil
}

// Metrics returns the gateway's registry (the GET /metrics payload).
func (g *Gateway) Metrics() *telemetry.Registry { return g.tel.reg }

// Drain marks a replica as leaving (or, with restore, rejoining) the
// fleet. Draining replicas take no new requests; in-flight ones finish.
func (g *Gateway) Drain(name string, restore bool) bool {
	rep, ok := g.replicas[name]
	if !ok {
		return false
	}
	rep.draining.Store(!restore)
	return true
}

// DrainAll marks every replica draining — the shutdown path.
func (g *Gateway) DrainAll() {
	for _, name := range g.order {
		g.replicas[name].draining.Store(true)
	}
}

// upstreamResult is one attempt's raw outcome.
type upstreamResult struct {
	status  int
	header  http.Header
	body    []byte
	latency time.Duration
	err     error
}

// usable reports whether the result can be returned to the client as-is:
// the replica answered and is not asking us to go elsewhere (5xx and 429
// are retry fodder, not answers).
func (u *upstreamResult) usable() bool {
	return u.err == nil && u.status != http.StatusTooManyRequests && u.status < 500
}

// healthyOutcome is the breaker's success criterion: any coherent HTTP
// response below 500 that is not a 429. A 429 keeps the breaker closed
// too — a replica shedding load is alive — but is counted separately.
func (u *upstreamResult) healthyOutcome() bool {
	return u.err == nil && u.status < 500
}

func (u *upstreamResult) outcomeLabel() string {
	switch {
	case u.err != nil:
		return "error"
	case u.status == http.StatusTooManyRequests:
		return "busy"
	case u.status >= 500:
		return "5xx"
	case u.status >= 400:
		return "4xx"
	default:
		return "ok"
	}
}

// send issues one attempt under ctx, the attempt's own (per-try timeout
// included), and buffers the response. The request is built from the
// replica's URL for path as New made it, on the shared header maps, and
// goes straight to the transport: what Client.Do sent, less the copy of
// the headers it made per request, with a failure wrapped as Client.Do
// wrapped it.
func (g *Gateway) send(ctx context.Context, rep *replica, method, path string, body []byte) upstreamResult {
	u := rep.urls[path]
	req := (&http.Request{
		Method: method, URL: u, Host: u.Host,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: emptyRequestHeader,
	}).WithContext(ctx)
	if len(body) > 0 {
		req.Header = jsonRequestHeader
		req.ContentLength = int64(len(body))
		// The transport rewinds through GetBody when it has to replay the
		// request on a fresh connection.
		req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil }
		req.Body, _ = req.GetBody()
	}
	start := g.now()
	resp, err := g.transport.RoundTrip(req)
	if err != nil {
		return upstreamResult{err: &url.Error{Op: method[:1] + strings.ToLower(method[1:]), URL: u.String(), Err: err}}
	}
	defer resp.Body.Close()
	var b []byte
	if n := resp.ContentLength; n < 0 {
		b, err = io.ReadAll(io.LimitReader(resp.Body, maxUpstreamBody+1))
	} else if n <= maxUpstreamBody {
		// Declared: one buffer of that length, not io.ReadAll's doubling.
		b = make([]byte, n)
		_, err = io.ReadFull(resp.Body, b)
	}
	if err != nil {
		return upstreamResult{err: err}
	}
	if resp.ContentLength > maxUpstreamBody || len(b) > maxUpstreamBody {
		return upstreamResult{err: fmt.Errorf("gateway: response from %s exceeds %d bytes", rep.cfg.Name, maxUpstreamBody)}
	}
	return upstreamResult{status: resp.StatusCode, header: resp.Header, body: b, latency: g.now().Sub(start)}
}

// pick walks the shard's ring order and admits the first replica that is
// not draining, has budget headroom, and whose breaker passes. Every
// rejection is named in the returned skip list.
func (g *Gateway) pick(key, exclude uint64) (*replica, bool, []FleetSkip) {
	var skips []FleetSkip
	for _, i := range g.ring.Shard(key) {
		rep := g.reps[i]
		if exclude&rep.bit != 0 {
			continue
		}
		if rep.draining.Load() {
			skips = append(skips, FleetSkip{Replica: rep.cfg.Name, Reason: skipDraining})
			continue
		}
		if !rep.acquire(g.cfg.ReplicaBudget) {
			skips = append(skips, FleetSkip{Replica: rep.cfg.Name, Reason: skipSaturated})
			continue
		}
		pass, probe := rep.breaker.Allow()
		if !pass {
			rep.release()
			skips = append(skips, FleetSkip{Replica: rep.cfg.Name, Reason: skipBreakerOpen})
			continue
		}
		return rep, probe, skips
	}
	return nil, false, skips
}

// hedgeDelay is how long the primary attempt gets before a hedge
// launches: the configured value, or the observed upstream p99 clamped
// to sane bounds.
func (g *Gateway) hedgeDelay() time.Duration {
	if g.cfg.HedgeAfter > 0 {
		return g.cfg.HedgeAfter
	}
	p99 := g.lat.P99()
	if p99 <= 0 {
		return hedgeDelayDefault
	}
	return min(max(p99, hedgeDelayMin), hedgeDelayMax)
}

// attemptOutcome is one raced attempt's result as race sees it. void
// marks an attempt cancelled by the race itself (hedge loser or client
// gone): it carries no signal about the replica.
type attemptOutcome struct {
	res  upstreamResult
	rep  *replica
	void bool
}

// won reports whether the attempt produced the round's answer. (A void
// outcome's zero res would read as usable.)
func (o *attemptOutcome) won() bool { return !o.void && o.res.usable() }

// try is one attempt's context: the request's under the per-try timeout.
// lost is set, before cancel, by whoever ends the try for the race — the
// hedge that won, or the round returning with the hedge still out — and
// makes its failure void. A per-try timeout sets nothing: it stays the
// replica's failure.
type try struct {
	ctx    context.Context
	cancel context.CancelFunc
	lost   atomic.Bool
}

func (t *try) start(ctx context.Context, timeout time.Duration) {
	t.ctx, t.cancel = context.WithTimeout(ctx, timeout)
}

// abandon ends the try for the race.
func (t *try) abandon() {
	t.lost.Store(true)
	t.cancel()
}

// attempt runs one admitted try on the caller's goroutine: send, then
// finish; ctx is the request's. If send panics (a transport bug) finish
// never runs, so the books are settled here on the way out — budget slot
// back, a failure on the breaker, probe slot included — and the panic
// keeps unwinding; otherwise ReplicaBudget such panics would mark a
// healthy replica saturated for good and one would wedge its breaker
// half-open.
func (g *Gateway) attempt(ctx context.Context, t *try, rep *replica, probe bool, method, path string, body []byte) attemptOutcome {
	sent := false
	defer func() {
		if !sent {
			rep.breaker.Record(false, probe)
			rep.release()
			g.tel.replica(rep.cfg.Name).outcome("error").Inc()
		}
	}()
	res := g.send(t.ctx, rep, method, path, body)
	sent = true
	return g.finish(ctx, t, rep, probe, res)
}

// finish settles one in-flight attempt: breaker feedback (or a void
// release for cancelled losers), budget release, metrics, and the
// latency sample that feeds the hedge delay.
func (g *Gateway) finish(ctx context.Context, t *try, rep *replica, probe bool, res upstreamResult) attemptOutcome {
	if res.err != nil && (ctx.Err() != nil || t.lost.Load()) {
		// Cancelled mid-flight — by the race or by the client going away.
		// Either way the replica answered nothing; feeding this to the
		// breaker as a failure would let hedging trip breakers on healthy
		// replicas.
		rep.breaker.Release(probe)
		rep.release()
		return attemptOutcome{rep: rep, void: true}
	}
	rep.breaker.Record(res.healthyOutcome(), probe)
	rep.release()
	g.tel.replica(rep.cfg.Name).outcome(res.outcomeLabel()).Inc()
	if res.err == nil && res.status < 300 {
		g.lat.Observe(res.latency)
		g.tel.upstream.ObserveDuration(res.latency)
	}
	return attemptOutcome{res: res, rep: rep}
}

// raceState is what one attempt round's two parties share: the caller's
// goroutine, which runs the primary, and the hedge timer's callback. The
// round's fields are set before the timer is armed and only read while it
// is. mu orders the callback's one decision — launch only while the
// primary is still out — against the primary settling, and with it
// ownership of tried: the callback may touch it only under mu with
// primarySettled false, the caller's goroutine only outside that window.
// States are pooled per gateway with their timer; one is recycled only
// when Stop reports that its callback never ran.
type raceState struct {
	g     *Gateway
	timer *time.Timer

	ctx          context.Context
	key          uint64
	method, path string
	body         []byte
	primary      try

	mu             sync.Mutex
	primarySettled bool
	tried          uint64
	skips          []FleetSkip
	// done is non-nil once a hedge is in flight and closed when it has
	// settled; out is valid from then on.
	done  chan struct{}
	hedge try
	out   attemptOutcome
}

// race runs one attempt round: the primary request, on the caller's
// goroutine, plus — when hedging is on and the primary outlives the hedge
// delay — a second request to a different replica from the hedge timer's
// callback, the one launch on the path. First usable response wins and
// cancels the other; the loser's outcome is voided rather than recorded.
// A primary that fails with no hedge out returns at once; with one out it
// waits for it. Returns the winning outcome, or the primary's failure
// once every launched attempt has failed, plus any skips from hedge
// candidate selection; the hedge's replica joins tried.
func (g *Gateway) race(ctx context.Context, key uint64, tried *uint64,
	primary *replica, primaryProbe bool, method, path string, body []byte, canHedge bool,
) (attemptOutcome, []FleetSkip) {
	st := g.races.Get().(*raceState)
	st.ctx, st.key, st.method, st.path, st.body, st.tried = ctx, key, method, path, body, *tried
	st.primary.start(ctx, g.cfg.PerTryTimeout)
	if canHedge {
		st.timer.Reset(g.hedgeDelay())
	}
	defer st.end(canHedge)

	out := g.attempt(ctx, &st.primary, primary, primaryProbe, method, path, body)
	st.mu.Lock()
	st.primarySettled = true // from here the timer's callback cannot launch
	skips, hedged := st.skips, st.done
	*tried = st.tried
	st.mu.Unlock()
	if hedged != nil && !out.won() {
		select {
		case <-hedged:
			if st.out.won() {
				g.tel.replica(st.out.rep.cfg.Name).hedgeWins.Inc()
				return st.out, skips
			}
		case <-ctx.Done():
			// Client gone: the hedge settles on its own, void.
		}
	}
	if out.void {
		// Only the client leaving voids a primary whose hedge did not win.
		return attemptOutcome{res: upstreamResult{err: ctx.Err()}}, skips
	}
	return out, skips
}

// end closes the round, a panicking primary's included: the primary's
// context is released and a hedge still out is abandoned. The state goes
// back to the pool only if the hedge timer was never armed or Stop
// reports that its callback never ran; otherwise the callback holds it.
func (st *raceState) end(armed bool) {
	st.primary.cancel()
	if armed && !st.timer.Stop() {
		st.mu.Lock()
		st.primarySettled = true
		hedged := st.done != nil
		st.mu.Unlock()
		if hedged {
			st.hedge.abandon()
		}
		return
	}
	*st = raceState{g: st.g, timer: st.timer}
	st.g.races.Put(st)
}

// launchHedge is the hedge timer's callback: unless the primary has
// settled or the client has gone, it admits the next candidate and runs
// the hedge on the timer's goroutine.
func (st *raceState) launchHedge() {
	g := st.g
	st.mu.Lock()
	if st.primarySettled || st.ctx.Err() != nil {
		st.mu.Unlock()
		return
	}
	rep, probe, skips := g.pick(st.key, st.tried)
	st.skips = skips
	if rep == nil {
		st.mu.Unlock()
		return
	}
	st.tried |= rep.bit
	st.hedge.start(st.ctx, g.cfg.PerTryTimeout)
	st.done = make(chan struct{})
	st.mu.Unlock()

	g.tel.replica(rep.cfg.Name).hedges.Inc()
	defer close(st.done)
	st.out = g.hedgeAttempt(st.ctx, &st.hedge, rep, probe, st.method, st.path, st.body)
	if st.out.won() {
		st.primary.abandon() // the primary comes back void
	}
}

// hedgeAttempt is attempt for the hedge, which runs on the timer's
// goroutine: guarded, and the race is told a panicked attempt failed.
func (g *Gateway) hedgeAttempt(ctx context.Context, t *try, rep *replica, probe bool, method, path string, body []byte) attemptOutcome {
	out := attemptOutcome{res: upstreamResult{err: errHedgePanicked}, rep: rep}
	g.guarded(method, path, func() {
		out = g.attempt(ctx, t, rep, probe, method, path, body)
	})
	return out
}

var errHedgePanicked = errors.New("gateway: hedge attempt panicked")

// guarded runs body on a goroutine the gateway launched — the hedge
// timer's, a /v1/reload fan-out's — where a panic would kill
// the process rather than reach the handler chain's Recover. It borrows the
// spine's: the panic is counted in scout_gw_http_panics_recovered_total
// and logged like a handler's, naming method and path, and its 500 goes
// nowhere. What body was to produce stays as its caller initialised it;
// attempt has settled the replica's books on the way out.
func (g *Gateway) guarded(method, path string, body func()) {
	g.web.Recover(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		body()
	})).ServeHTTP(nowhere{}, &http.Request{Method: method, URL: &url.URL{Path: path}})
}

// nowhere is the ResponseWriter guarded hands Recover.
type nowhere struct{}

func (nowhere) Header() http.Header         { return http.Header{} }
func (nowhere) Write(p []byte) (int, error) { return len(p), nil }
func (nowhere) WriteHeader(int)             {}

// forwardResult is forward's verdict: either an upstream response to
// relay verbatim (status/header/body) or a gateway-level failure
// (errStatus + errMsg), plus the skip trail for fleet_health.
type forwardResult struct {
	status  int
	header  http.Header
	body    []byte
	replica *replica

	errStatus int
	errMsg    string
	retryHint time.Duration
	skips     []FleetSkip
}

func (fr *forwardResult) failed() bool { return fr.errStatus != 0 }

// shed reports whether the request was turned away by saturation alone:
// some replica was skipped and every skip was saturation. That failure is
// the fleet pushing back (429), not the fleet failing.
func (fr *forwardResult) shed() bool {
	for _, s := range fr.skips {
		if s.Reason != skipSaturated {
			return false
		}
	}
	return len(fr.skips) > 0
}

// forward routes one request to its shard: bounded-load candidate
// selection, hedged attempts, jittered retries on a different replica.
// retriable gates the retry loop (and hedging) — only idempotent calls
// may be re-sent, because a retry after an ambiguous failure re-executes
// the request.
func (g *Gateway) forward(ctx context.Context, key uint64, method, path string, body []byte, retriable bool) forwardResult {
	maxAttempts := g.cfg.MaxAttempts
	if !retriable {
		maxAttempts = 1
	}
	canHedge := retriable && g.cfg.HedgeAfter >= 0
	var tried uint64 // a bit per replica, rep.bit
	var allSkips []FleetSkip
	var lastHint time.Duration
	var lastErr string
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		if attempt > 1 {
			if err := sleepCtx(ctx, g.backoff.delay(attempt-1, g.cfg.RetryBase, g.cfg.RetryMax, lastHint)); err != nil {
				return forwardResult{errStatus: 499, errMsg: "client went away: " + err.Error(), skips: allSkips}
			}
			lastHint = 0
			if bits.OnesCount64(tried) >= len(g.reps) {
				// Every replica in the shard has been tried; give them all
				// another chance rather than refusing to route.
				tried = 0
			}
		}
		rep, probe, skips := g.pick(key, tried)
		allSkips = append(allSkips, skips...)
		if rep == nil {
			lastErr = "no replica available"
			continue
		}
		tried |= rep.bit
		if attempt > 1 {
			g.tel.replica(rep.cfg.Name).retries.Inc()
		}
		out, hedgeSkips := g.race(ctx, key, &tried, rep, probe, method, path, body, canHedge)
		allSkips = append(allSkips, hedgeSkips...)
		if out.res.usable() {
			return forwardResult{status: out.res.status, header: out.res.header, body: out.res.body, replica: out.rep, skips: allSkips}
		}
		if ctx.Err() != nil {
			return forwardResult{errStatus: 499, errMsg: "client went away: " + ctx.Err().Error(), skips: allSkips}
		}
		if out.res.err != nil {
			lastErr = out.res.err.Error()
			if out.rep != nil {
				allSkips = append(allSkips, FleetSkip{Replica: out.rep.cfg.Name, Reason: skipUnreachable})
			}
		} else {
			lastErr = fmt.Sprintf("upstream answered %d", out.res.status)
			if out.res.status == http.StatusTooManyRequests {
				lastHint = ParseRetryAfter(out.res.header)
			}
			if out.rep != nil {
				reason := skipUnreachable
				if out.res.status == http.StatusTooManyRequests {
					reason = skipSaturated
				}
				allSkips = append(allSkips, FleetSkip{Replica: out.rep.cfg.Name, Reason: reason})
			}
		}
	}
	fr := forwardResult{skips: allSkips, errMsg: "team " + g.team + ": " + lastErr}
	if fr.shed() {
		// The whole candidate chain is saturated: shed, and tell the
		// client when the fleet expects headroom back.
		fr.errStatus = http.StatusTooManyRequests
		fr.retryHint = time.Second
		g.tel.shed.Inc()
	} else {
		fr.errStatus = http.StatusBadGateway
		if lastErr == "no replica available" {
			fr.errStatus = http.StatusServiceUnavailable
		}
		g.tel.noReplica.Inc()
	}
	return fr
}

// fleetHealth summarizes the fleet for /v1/health and failed answers: it
// is degraded when the request went unanswered or a replica is down.
func (g *Gateway) fleetHealth(skips []FleetSkip, answered bool) FleetHealth {
	up := 0
	for _, name := range g.order {
		rep := g.replicas[name]
		if !rep.draining.Load() && rep.breaker.State() != faults.StateOpen && rep.healthy.Load() {
			up++
		}
	}
	return FleetHealth{
		ReplicasTotal: len(g.order),
		ReplicasUp:    up,
		Degraded:      !answered || up < len(g.order),
		Skipped:       skips,
	}
}
