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
	"net/http"
	"net/url"
	"strings"
	"sync"
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

	// Client issues upstream requests; nil uses a dedicated transport.
	// Tests wire a faults.FlakyTransport here.
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

// jsonContentType is the Content-Type value of every upstream request
// with a body; shared, read-only.
var jsonContentType = []string{"application/json"}

// Gateway routes incidents to a scoutd fleet. Build with New, mount
// Handler(), and optionally run RunProber for active health checking.
type Gateway struct {
	cfg    Config
	client *http.Client
	now    func() time.Time
	logger *log.Logger

	replicas map[string]*replica
	order    []string // replica names, config order
	team     string   // the one team every replica serves
	ring     *ring

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
	g := &Gateway{
		cfg:      cfg,
		client:   cfg.Client,
		now:      cfg.Now,
		logger:   cfg.Logger,
		replicas: make(map[string]*replica, len(cfg.Replicas)),
		team:     cfg.Replicas[0].Team,
		backoff:  newBackoffSource(cfg.Seed),
		lat:      newLatencyWindow(),
	}
	if g.client == nil {
		g.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	}
	if g.logger == nil {
		g.logger = log.New(io.Discard, "", 0)
	}
	reps := make([]*replica, 0, len(cfg.Replicas))
	for _, rc := range cfg.Replicas {
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
		base.Host = strings.TrimSuffix(base.Host, ":") // as http.NewRequest does
		rep := &replica{
			cfg: rc, base: base, nameHeader: []string{rc.Name},
			breaker: faults.NewReqBreaker(cfg.Breaker, cfg.Now),
		}
		rep.healthy.Store(true) // optimistic until the first probe says otherwise
		g.replicas[rc.Name] = rep
		g.order = append(g.order, rc.Name)
		reps = append(reps, rep)
	}
	g.ring = newRing(g.order)
	g.tel = newGwMetrics(reps)
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

// send issues one attempt under the per-try timeout and buffers the
// response. The request is assembled from the replica's URL as parsed in
// New — what http.NewRequestWithContext builds, less a parse per attempt.
func (g *Gateway) send(ctx context.Context, rep *replica, method, path string, body []byte) upstreamResult {
	tctx, cancel := context.WithTimeout(ctx, g.cfg.PerTryTimeout)
	defer cancel()
	u := *rep.base
	u.Path += path
	req := (&http.Request{
		Method: method, URL: &u, Host: u.Host,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: make(http.Header),
	}).WithContext(tctx)
	if len(body) > 0 {
		req.Header["Content-Type"] = jsonContentType
		req.ContentLength = int64(len(body))
		// The transport rewinds through GetBody when it has to replay the
		// request on a fresh connection.
		req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil }
		req.Body, _ = req.GetBody()
	}
	start := g.now()
	resp, err := g.client.Do(req)
	if err != nil {
		return upstreamResult{err: err}
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
func (g *Gateway) pick(key string, exclude map[string]bool) (*replica, bool, []FleetSkip) {
	var skips []FleetSkip
	for _, name := range g.ring.Shard(key) {
		if exclude[name] {
			continue
		}
		rep := g.replicas[name]
		if rep.draining.Load() {
			skips = append(skips, FleetSkip{Replica: name, Reason: skipDraining})
			continue
		}
		if !rep.acquire(g.cfg.ReplicaBudget) {
			skips = append(skips, FleetSkip{Replica: name, Reason: skipSaturated})
			continue
		}
		pass, probe := rep.breaker.Allow()
		if !pass {
			rep.release()
			skips = append(skips, FleetSkip{Replica: name, Reason: skipBreakerOpen})
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

// attempt runs one admitted try on the caller's goroutine: send, then
// finish. If send panics (a transport bug) finish never runs, so the books
// are settled here on the way out — budget slot back, a failure on the
// breaker, probe slot included — and the panic keeps unwinding; otherwise
// ReplicaBudget such panics would mark a healthy replica saturated for
// good and one would wedge its breaker half-open.
func (g *Gateway) attempt(cctx context.Context, rep *replica, probe bool, method, path string, body []byte) attemptOutcome {
	sent := false
	defer func() {
		if !sent {
			rep.breaker.Record(false, probe)
			rep.release()
			g.tel.replica(rep.cfg.Name).outcome("error").Inc()
		}
	}()
	res := g.send(cctx, rep, method, path, body)
	sent = true
	return g.finish(cctx, rep, probe, res)
}

// finish settles one in-flight attempt: breaker feedback (or a void
// release for cancelled losers), budget release, metrics, and the
// latency sample that feeds the hedge delay.
func (g *Gateway) finish(cctx context.Context, rep *replica, probe bool, res upstreamResult) attemptOutcome {
	if res.err != nil && cctx.Err() != nil {
		// Cancelled mid-flight — by the race winner or by the client going
		// away. Either way the replica answered nothing; feeding this to
		// the breaker as a failure would let hedging trip breakers on
		// healthy replicas.
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

// hedgeState is what a race's two parties share. mu orders the hedge
// timer's one decision — launch only while the primary is still out —
// against the primary settling, and with it ownership of the tried set:
// the timer's callback may touch it only under mu with primarySettled
// false, the caller's goroutine only outside that window.
type hedgeState struct {
	mu             sync.Mutex
	primarySettled bool
	skips          []FleetSkip
	// done is non-nil once a hedge is in flight and closed when it has
	// settled; out is valid from then on.
	done chan struct{}
	out  attemptOutcome
}

// race runs one attempt round: the primary request, on the caller's
// goroutine, plus — when hedging is on and the primary outlives the hedge
// delay — a second request to a different replica from the hedge timer's
// callback, the one launch on the path. First usable response wins and
// cancels the other; the loser's outcome is voided rather than recorded.
// A primary that fails with no hedge out returns at once; with one out it
// waits for it. Returns the winning outcome, or the primary's failure
// once every launched attempt has failed, plus any skips from hedge
// candidate selection.
func (g *Gateway) race(ctx context.Context, key string, tried map[string]bool,
	primary *replica, primaryProbe bool, method, path string, body []byte, canHedge bool,
) (attemptOutcome, []FleetSkip) {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var h hedgeState
	if canHedge {
		timer := time.AfterFunc(g.hedgeDelay(), func() {
			h.mu.Lock()
			if h.primarySettled || cctx.Err() != nil {
				h.mu.Unlock()
				return
			}
			rep, probe, skips := g.pick(key, tried)
			h.skips = skips
			if rep == nil {
				h.mu.Unlock()
				return
			}
			tried[rep.cfg.Name] = true
			h.done = make(chan struct{})
			h.mu.Unlock()

			g.tel.replica(rep.cfg.Name).hedges.Inc()
			defer close(h.done)
			h.out = g.hedgeAttempt(cctx, rep, probe, method, path, body)
			if h.out.won() {
				cancel() // the primary comes back void
			}
		})
		defer timer.Stop()
	}

	out := g.attempt(cctx, primary, primaryProbe, method, path, body)
	h.mu.Lock()
	h.primarySettled = true // from here the timer's callback cannot launch
	skips, hedged := h.skips, h.done
	h.mu.Unlock()
	if hedged != nil && !out.won() {
		select {
		case <-hedged:
			if h.out.won() {
				g.tel.replica(h.out.rep.cfg.Name).hedgeWins.Inc()
				return h.out, skips
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

// hedgeAttempt is attempt for the hedge, which runs on the timer's
// goroutine: guarded, and the race is told a panicked attempt failed.
func (g *Gateway) hedgeAttempt(cctx context.Context, rep *replica, probe bool, method, path string, body []byte) attemptOutcome {
	out := attemptOutcome{res: upstreamResult{err: errHedgePanicked}, rep: rep}
	g.guarded(method, path, func() {
		out = g.attempt(cctx, rep, probe, method, path, body)
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
func (g *Gateway) forward(ctx context.Context, key, method, path string, body []byte, retriable bool) forwardResult {
	maxAttempts := g.cfg.MaxAttempts
	if !retriable {
		maxAttempts = 1
	}
	canHedge := retriable && g.cfg.HedgeAfter >= 0
	tried := make(map[string]bool, len(g.order))
	var allSkips []FleetSkip
	var lastHint time.Duration
	var lastErr string
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		if attempt > 1 {
			if err := sleepCtx(ctx, g.backoff.delay(attempt-1, g.cfg.RetryBase, g.cfg.RetryMax, lastHint)); err != nil {
				return forwardResult{errStatus: 499, errMsg: "client went away: " + err.Error(), skips: allSkips}
			}
			lastHint = 0
			if len(tried) >= len(g.order) {
				// Every replica in the shard has been tried; give them all
				// another chance rather than refusing to route.
				clear(tried)
			}
		}
		rep, probe, skips := g.pick(key, tried)
		allSkips = append(allSkips, skips...)
		if rep == nil {
			lastErr = "no replica available"
			continue
		}
		tried[rep.cfg.Name] = true
		if attempt > 1 {
			g.tel.replica(rep.cfg.Name).retries.Inc()
		}
		out, hedgeSkips := g.race(ctx, key, tried, rep, probe, method, path, body, canHedge)
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
