package gateway

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"scouts/internal/faults"
	"scouts/internal/httpx"
)

// maxGwBody caps client request bodies at the gateway (matches the
// serving layer's single-predict cap; batch calls go straight to a
// replica, not through the gateway).
const maxGwBody = 1 << 20

// errorBody is the spine's error envelope plus the fleet picture behind
// a gateway-level failure.
type errorBody struct {
	Error       string       `json:"error"`
	FleetHealth *FleetHealth `json:"fleet_health,omitempty"`
}

// DrainRequest is POST /v1/drain's input.
type DrainRequest struct {
	Replica string `json:"replica"`
	// Restore re-admits a previously drained replica.
	Restore bool `json:"restore,omitempty"`
}

// Handler returns the gateway mux:
//
//	POST /v1/predict[?team=T] -> proxied PredictResponse from the shard (verbatim)
//	GET  /v1/health           -> fleet + per-replica health
//	POST /v1/reload           -> fan out reload to every replica (no retries)
//	POST /v1/drain            -> mark a replica draining / restored
//	GET  /metrics             -> Prometheus text exposition of scout_gw_* series
//
// The routes sit on the shared spine (internal/httpx): every one is
// instrumented, unrouted paths answer JSON 404, and a handler panic is a
// counted JSON 500.
func (g *Gateway) Handler() http.Handler {
	mux := g.web.Mux(g.now, nil)
	mux.Handle("POST /v1/predict", "/v1/predict", http.HandlerFunc(g.handlePredict))
	mux.Handle("GET /v1/health", "/v1/health", http.HandlerFunc(g.handleHealth))
	mux.Handle("POST /v1/reload", "/v1/reload", http.HandlerFunc(g.handleReload))
	mux.Handle("POST /v1/drain", "/v1/drain", http.HandlerFunc(g.handleDrain))
	mux.Handle("GET /metrics", "/metrics", g.tel.reg)
	return g.web.Recover(mux)
}

// relay writes a forward result to the client: upstream responses are
// passed through verbatim — status, Content-Type and body bytes — so a
// gateway answer is bit-identical to asking the replica directly;
// gateway-level failures become JSON errors carrying the fleet picture.
func (g *Gateway) relay(w http.ResponseWriter, fr forwardResult) {
	if fr.failed() {
		if fr.retryHint > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(int(fr.retryHint.Seconds())))
		}
		fh := g.fleetHealth(fr.skips, false)
		g.web.WriteJSON(w, fr.errStatus, errorBody{Error: fr.errMsg, FleetHealth: &fh})
		return
	}
	// The value slices are shared, not copied: the upstream's own, and the
	// replica's prebuilt name. Nothing downstream mutates a header value.
	h := w.Header()
	if ct := fr.header["Content-Type"]; len(ct) > 0 && ct[0] != "" {
		h["Content-Type"] = ct[:1]
	}
	h["X-Scout-Replica"] = fr.replica.nameHeader
	// The upstream's length is kept when it is one value and the body's;
	// an absent one is not parsed, so it costs no error value.
	cl := fr.header["Content-Length"]
	if len(cl) != 1 || !declaresLength(cl[0], len(fr.body)) {
		cl = []string{strconv.Itoa(len(fr.body))}
	}
	h["Content-Length"] = cl
	w.WriteHeader(fr.status)
	_, _ = w.Write(fr.body)
}

// declaresLength reports whether a Content-Length value reads as n.
func declaresLength(v string, n int) bool {
	got, err := strconv.Atoi(v)
	return err == nil && got == n
}

// hashParts places an incident on the ring: FNV-1a 64 of
// team + "\x00" + title + "\x00" + body, hashed in parts so the key is
// never built. Stable per incident, so the same incident keeps hitting the
// same replica (and its caches) while distinct incidents spread across the
// failover set. The team prefix is the same for every incident of a fleet;
// it stays because dropping it would move most incidents to another
// replica (DESIGN.md §14.1).
func hashParts(team, title, body string) uint64 {
	h := fnv1a(fnv1a(fnvOffset64, team), "\x00")
	h = fnv1a(fnv1a(h, title), "\x00")
	return fnv1a(h, body)
}

// queryValue is url.ParseQuery(query).Get(key) without the map: the first
// value of key in a raw query, by ParseQuery's rules (a pair that holds a
// semicolon or does not unescape is skipped).
func queryValue(query, key string) string {
	for query != "" {
		var pair string
		pair, query, _ = strings.Cut(query, "&")
		if strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != key {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}

// handlePredict proxies one prediction to its shard. The ?team= query
// parameter is optional and, when given, must name the fleet's team; the
// body is validated for shape, then forwarded byte for byte.
func (g *Gateway) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req httpx.PredictRequest
	raw, ok := g.web.ReadPredict(w, r, maxGwBody, &req)
	if !ok {
		return
	}
	if team := queryValue(r.URL.RawQuery, "team"); team != "" && team != g.team {
		g.relay(w, forwardResult{errStatus: http.StatusNotFound, errMsg: "no replicas serve team " + team})
		return
	}
	fr := g.forward(r.Context(), hashParts(g.team, req.Title, req.Body), http.MethodPost, "/v1/predict", raw, true)
	g.relay(w, fr)
}

// handleHealth reports the fleet: per-replica breaker/budget/drain state
// plus the aggregate. 200 while at least one replica can take traffic,
// 503 once none can — that is the signal to pull the gateway itself.
func (g *Gateway) handleHealth(w http.ResponseWriter, _ *http.Request) {
	rows := make([]ReplicaHealth, 0, len(g.order))
	usable := 0
	for _, name := range g.order {
		row := g.replicas[name].health()
		if !row.Draining && row.Breaker != string(faults.StateOpen) {
			usable++
		}
		rows = append(rows, row)
	}
	fh := g.fleetHealth(nil, true)
	status := http.StatusOK
	state := "ok"
	if fh.Degraded {
		state = "degraded"
	}
	if usable == 0 {
		status = http.StatusServiceUnavailable
		state = "down"
	}
	g.web.WriteJSON(w, status, map[string]any{
		"status":       state,
		"fleet_health": fh,
		"replicas":     rows,
	})
}

// handleReload fans a reload out to every replica — once each, no
// retries and no hedging: reload is not idempotent-cheap (each call
// re-reads the store), and a doubled reload on a struggling replica
// helps nothing. Per-replica outcomes are reported individually; the
// overall status is 200 only when every replica reloaded.
func (g *Gateway) handleReload(w http.ResponseWriter, r *http.Request) {
	results := make([]reloadResult, len(g.order))
	var wg sync.WaitGroup
	for i, name := range g.order {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = reloadResult{Replica: name, Error: "reload attempt panicked"}
			g.guarded(r.Method, r.URL.Path, func() {
				results[i] = g.reloadReplica(r.Context(), name)
			})
		}()
	}
	wg.Wait()
	status := http.StatusOK
	for _, res := range results {
		if !res.OK {
			status = http.StatusBadGateway
		}
	}
	g.web.WriteJSON(w, status, map[string]any{"results": results})
}

// reloadResult is one replica's row of the /v1/reload answer.
type reloadResult struct {
	Replica string `json:"replica"`
	OK      bool   `json:"ok"`
	Status  int    `json:"status,omitempty"`
	Error   string `json:"error,omitempty"`
}

// reloadReplica sends the one reload a replica gets, admitted like any
// other attempt: not while draining, saturated or behind an open breaker.
func (g *Gateway) reloadReplica(ctx context.Context, name string) reloadResult {
	rep := g.replicas[name]
	res := reloadResult{Replica: name}
	if rep.draining.Load() {
		res.Error = skipDraining
		return res
	}
	if !rep.acquire(g.cfg.ReplicaBudget) {
		res.Error = skipSaturated
		return res
	}
	pass, probe := rep.breaker.Allow()
	if !pass {
		rep.release()
		res.Error = skipBreakerOpen
		return res
	}
	var t try
	t.start(ctx, g.cfg.PerTryTimeout)
	defer t.cancel()
	out := g.attempt(ctx, &t, rep, probe, http.MethodPost, "/v1/reload", nil)
	switch {
	case out.void:
		res.Error = "cancelled"
	case out.res.err != nil:
		res.Error = out.res.err.Error()
	default:
		res.Status = out.res.status
		res.OK = out.res.status == http.StatusOK
		if !res.OK {
			res.Error = fmt.Sprintf("replica answered %d", out.res.status)
		}
	}
	return res
}

// handleDrain marks a replica draining (or restores it). Draining is the
// graceful-removal path: the replica finishes what it has and gets
// nothing new, so it can be stopped without failing client requests.
func (g *Gateway) handleDrain(w http.ResponseWriter, r *http.Request) {
	var req DrainRequest
	if !g.web.Decode(w, r, maxGwBody, &req) {
		return
	}
	if req.Replica == "" {
		g.web.WriteError(w, http.StatusBadRequest, "replica is required")
		return
	}
	if !g.Drain(req.Replica, req.Restore) {
		g.web.WriteError(w, http.StatusNotFound, "no such replica: "+req.Replica)
		return
	}
	g.web.WriteJSON(w, http.StatusOK, g.replicas[req.Replica].health())
}
