// Package gateway is the fleet front door: it consistent-hash-shards
// incidents across a set of scoutd replicas and keeps answering while
// parts of the fleet misbehave. Per-replica circuit breakers stop
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
	"fmt"
	"io"
	"log"
	"net/http"
	"slices"
	"time"

	"scouts/internal/faults"
	"scouts/internal/httpx"
	"scouts/internal/telemetry"
)

// Config sizes the gateway. The zero value of every knob means "use the
// default in parentheses"; set HedgeAfter negative to disable hedging.
type Config struct {
	// Replicas is the fleet: every entry must have a unique Name and a
	// non-empty Team and URL. Replicas sharing a Team form that team's
	// failover set.
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
	// TopK is the default size of /v1/route rankings (3).
	TopK int
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
	if c.TopK <= 0 {
		c.TopK = 3
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

// Gateway routes incidents to a scoutd fleet. Build with New, mount
// Handler(), and optionally run RunProber for active health checking.
type Gateway struct {
	cfg    Config
	client *http.Client
	now    func() time.Time
	logger *log.Logger

	replicas map[string]*replica
	order    []string // replica names, config order
	teams    []string // distinct team names, sorted
	byTeam   map[string]*ring

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
		byTeam:   make(map[string]*ring),
		backoff:  newBackoffSource(cfg.Seed),
		lat:      newLatencyWindow(),
	}
	if g.client == nil {
		g.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	}
	if g.logger == nil {
		g.logger = log.New(io.Discard, "", 0)
	}
	teamNames := map[string][]string{}
	reps := make([]*replica, 0, len(cfg.Replicas))
	for _, rc := range cfg.Replicas {
		if rc.Name == "" || rc.Team == "" || rc.URL == "" {
			return nil, fmt.Errorf("gateway: replica needs name, team and url (got %+v)", rc)
		}
		if _, dup := g.replicas[rc.Name]; dup {
			return nil, fmt.Errorf("gateway: duplicate replica name %q", rc.Name)
		}
		rep := &replica{cfg: rc, breaker: faults.NewReqBreaker(cfg.Breaker, cfg.Now)}
		rep.healthy.Store(true) // optimistic until the first probe says otherwise
		g.replicas[rc.Name] = rep
		g.order = append(g.order, rc.Name)
		teamNames[rc.Team] = append(teamNames[rc.Team], rc.Name)
		reps = append(reps, rep)
	}
	for team, names := range teamNames {
		g.teams = append(g.teams, team)
		g.byTeam[team] = newRing(names)
	}
	slices.Sort(g.teams)
	g.tel = newGwMetrics(reps)
	g.web = httpx.New(g.tel.reg, "scout_gw_http", gwEndpoints, g.logger)
	return g, nil
}

// Teams returns the sorted team set the fleet serves.
func (g *Gateway) Teams() []string { return slices.Clone(g.teams) }

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
// response.
func (g *Gateway) send(ctx context.Context, rep *replica, method, path string, body []byte) upstreamResult {
	tctx, cancel := context.WithTimeout(ctx, g.cfg.PerTryTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(tctx, method, rep.cfg.URL+path, rd)
	if err != nil {
		return upstreamResult{err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := g.now()
	resp, err := g.client.Do(req)
	if err != nil {
		return upstreamResult{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxUpstreamBody+1))
	if err != nil {
		return upstreamResult{err: err}
	}
	if len(b) > maxUpstreamBody {
		return upstreamResult{err: fmt.Errorf("gateway: response from %s exceeds %d bytes", rep.cfg.Name, maxUpstreamBody)}
	}
	return upstreamResult{status: resp.StatusCode, header: resp.Header, body: b, latency: g.now().Sub(start)}
}

// pick walks the shard's ring order and admits the first replica that is
// not draining, has budget headroom, and whose breaker passes. Every
// rejection is named in the returned skip list.
func (g *Gateway) pick(r *ring, key string, exclude map[string]bool) (*replica, bool, []FleetSkip) {
	var skips []FleetSkip
	for _, name := range r.Shard(key) {
		if exclude[name] {
			continue
		}
		rep := g.replicas[name]
		if rep.draining.Load() {
			skips = append(skips, FleetSkip{Replica: name, Team: rep.cfg.Team, Reason: skipDraining})
			continue
		}
		if !rep.acquire(g.cfg.ReplicaBudget) {
			skips = append(skips, FleetSkip{Replica: name, Team: rep.cfg.Team, Reason: skipSaturated})
			continue
		}
		pass, probe := rep.breaker.Allow()
		if !pass {
			rep.release()
			skips = append(skips, FleetSkip{Replica: name, Team: rep.cfg.Team, Reason: skipBreakerOpen})
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

// attemptOutcome is one raced attempt's result as the coordinator sees
// it. void marks an attempt cancelled by the race itself (hedge loser or
// client gone): it carries no signal about the replica.
type attemptOutcome struct {
	res   upstreamResult
	rep   *replica
	void  bool
	hedge bool
}

// finish settles one in-flight attempt: breaker feedback (or a void
// release for cancelled losers), budget release, metrics, and the
// latency sample that feeds the hedge delay.
func (g *Gateway) finish(cctx context.Context, rep *replica, probe, isHedge bool, res upstreamResult) attemptOutcome {
	if res.err != nil && cctx.Err() != nil {
		// Cancelled mid-flight — by the race winner or by the client going
		// away. Either way the replica answered nothing; feeding this to
		// the breaker as a failure would let hedging trip breakers on
		// healthy replicas.
		rep.breaker.Release(probe)
		rep.release()
		return attemptOutcome{rep: rep, void: true, hedge: isHedge}
	}
	rep.breaker.Record(res.healthyOutcome(), probe)
	rep.release()
	g.tel.replica(rep.cfg.Name).outcome(res.outcomeLabel()).Inc()
	if res.err == nil && res.status < 300 {
		g.lat.Observe(res.latency)
		g.tel.upstream.ObserveDuration(res.latency)
	}
	return attemptOutcome{res: res, rep: rep, hedge: isHedge}
}

// race runs one attempt round: the primary request, plus — when hedging
// is on and the primary outlives the hedge delay — a second request to a
// different replica. First usable response wins and cancels the other;
// the loser's outcome is voided rather than recorded. Returns the
// winning outcome, or the first failure once every launched attempt has
// failed, plus any skips from hedge candidate selection.
func (g *Gateway) race(ctx context.Context, r *ring, key string, tried map[string]bool,
	primary *replica, primaryProbe bool, method, path string, body []byte, canHedge bool,
) (attemptOutcome, []FleetSkip) {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Buffered to the maximum number of launched attempts: a goroutine
	// finishing after the coordinator returned parks its result here and
	// exits instead of leaking.
	results := make(chan attemptOutcome, 2)
	launch := func(rep *replica, probe, isHedge bool) {
		go func() {
			results <- g.finish(cctx, rep, probe, isHedge, g.send(cctx, rep, method, path, body))
		}()
	}
	launch(primary, primaryProbe, false)

	var hedgeC <-chan time.Time
	if canHedge {
		t := time.NewTimer(g.hedgeDelay())
		defer t.Stop()
		hedgeC = t.C
	}
	var skips []FleetSkip
	inFlight := 1
	var firstFail *attemptOutcome
	for {
		select {
		case <-ctx.Done():
			// Client gone: cancel everything; the launched goroutines settle
			// into the buffered channel and exit.
			cancel()
			return attemptOutcome{res: upstreamResult{err: ctx.Err()}}, skips
		case <-hedgeC:
			hedgeC = nil
			h, hprobe, s := g.pick(r, key, tried)
			skips = append(skips, s...)
			if h != nil {
				tried[h.cfg.Name] = true
				g.tel.replica(h.cfg.Name).hedges.Inc()
				launch(h, hprobe, true)
				inFlight++
			}
		case out := <-results:
			inFlight--
			if out.void {
				if inFlight == 0 {
					if firstFail != nil {
						return *firstFail, skips
					}
					return attemptOutcome{res: upstreamResult{err: ctx.Err()}}, skips
				}
				continue
			}
			if out.res.usable() {
				cancel()
				if out.hedge {
					g.tel.replica(out.rep.cfg.Name).hedgeWins.Inc()
				}
				return out, skips
			}
			if firstFail == nil {
				firstFail = &out
			}
			if inFlight == 0 {
				return *firstFail, skips
			}
		}
	}
}

// forwardResult is forward's verdict: either an upstream response to
// relay verbatim (status/header/body) or a gateway-level failure
// (errStatus + errMsg), plus the skip trail for fleet_health.
type forwardResult struct {
	status  int
	header  http.Header
	body    []byte
	replica string

	errStatus int
	errMsg    string
	retryHint time.Duration
	skips     []FleetSkip
}

func (fr *forwardResult) failed() bool { return fr.errStatus != 0 }

// skipReason compresses the skip trail into one team-level reason for
// fleet_health aggregation: saturation only if *every* skip was
// saturation (that is the shed case), otherwise the first reason seen,
// or unreachable when no candidate was ever found.
func (fr *forwardResult) skipReason() string {
	if len(fr.skips) == 0 {
		return skipUnreachable
	}
	allSat := true
	for _, s := range fr.skips {
		if s.Reason != skipSaturated {
			allSat = false
			break
		}
	}
	if allSat {
		return skipSaturated
	}
	return fr.skips[0].Reason
}

// forward routes one request to the team's shard: bounded-load candidate
// selection, hedged attempts, jittered retries on a different replica.
// retriable gates the retry loop (and hedging) — only idempotent calls
// may be re-sent, because a retry after an ambiguous failure re-executes
// the request.
func (g *Gateway) forward(ctx context.Context, team, key, method, path string, body []byte, retriable bool) forwardResult {
	r := g.byTeam[team]
	if r == nil {
		return forwardResult{errStatus: http.StatusNotFound, errMsg: "no replicas serve team " + team}
	}
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
			if len(tried) >= len(r.names) {
				// Every replica in the shard has been tried; give them all
				// another chance rather than refusing to route.
				clear(tried)
			}
		}
		rep, probe, skips := g.pick(r, key, tried)
		allSkips = append(allSkips, skips...)
		if rep == nil {
			lastErr = "no replica available"
			continue
		}
		tried[rep.cfg.Name] = true
		if attempt > 1 {
			g.tel.replica(rep.cfg.Name).retries.Inc()
		}
		out, hedgeSkips := g.race(ctx, r, key, tried, rep, probe, method, path, body, canHedge)
		allSkips = append(allSkips, hedgeSkips...)
		if out.res.usable() {
			name := ""
			if out.rep != nil {
				name = out.rep.cfg.Name
			}
			return forwardResult{status: out.res.status, header: out.res.header, body: out.res.body, replica: name, skips: allSkips}
		}
		if ctx.Err() != nil {
			return forwardResult{errStatus: 499, errMsg: "client went away: " + ctx.Err().Error(), skips: allSkips}
		}
		if out.res.err != nil {
			lastErr = out.res.err.Error()
			if out.rep != nil {
				allSkips = append(allSkips, FleetSkip{Replica: out.rep.cfg.Name, Team: team, Reason: skipUnreachable})
			}
		} else {
			lastErr = fmt.Sprintf("upstream answered %d", out.res.status)
			if out.res.status == http.StatusTooManyRequests {
				lastHint = parseRetryAfter(out.res.header)
			}
			if out.rep != nil {
				reason := skipUnreachable
				if out.res.status == http.StatusTooManyRequests {
					reason = skipSaturated
				}
				allSkips = append(allSkips, FleetSkip{Replica: out.rep.cfg.Name, Team: team, Reason: reason})
			}
		}
	}
	fr := forwardResult{skips: allSkips, errMsg: "team " + team + ": " + lastErr}
	if fr.skipReason() == skipSaturated {
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

// fleetHealth summarizes the fleet for /v1/health and degraded answers.
func (g *Gateway) fleetHealth(skips []FleetSkip, teamsAnswered int) FleetHealth {
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
		TeamsTotal:    len(g.teams),
		TeamsAnswered: teamsAnswered,
		Degraded:      teamsAnswered < len(g.teams) || up < len(g.order),
		Skipped:       skips,
	}
}
