package serving

import (
	"context"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"scouts/internal/core"
	"scouts/internal/monitoring"
	"scouts/internal/telemetry"
)

// This file is the server's self-observability plane: the metric set,
// request-ID plumbing, the deadline middleware and the
// core.PredictObserver implementation (per-endpoint instrumentation is
// the spine's, internal/httpx). The invariants (DESIGN.md
// §11): recording a sample on the request path is atomic adds only —
// no locks, no label hashing, no allocation — and nothing exported
// through /metrics reads the wall clock, so a scrape under an injected
// clock is reproducible byte for byte.

// endpoints is the full route set of Handler(). The spine pre-registers
// the per-endpoint series from this list so request-time lookup is a
// prebuilt pointer, never a registry access.
var endpoints = []string{
	"/v1/health", "/v1/model", "/v1/reload", "/v1/predict", "/v1/predict:batch",
	"/metrics",
}

// serverMetrics is every series the server exports, held by pointer so
// the request path records without touching the registry.
type serverMetrics struct {
	reg *telemetry.Registry

	shed     *telemetry.Counter
	timeouts *telemetry.Counter

	reloads      *telemetry.Counter
	modelVersion *telemetry.Gauge
	// loadSeconds holds the float64 bits of the last model load's
	// duration; exported through a GaugeFunc because the gauge type is
	// integral and load latency needs sub-second resolution.
	loadSeconds atomic.Uint64
	modelBytes  *telemetry.Gauge
	// modelFormat is 0 while a JSON snapshot is served, 1 for a scoutpack.
	modelFormat *telemetry.Gauge

	predByModel map[string]*telemetry.Counter
	predOther   *telemetry.Counter
	fallbacks   *telemetry.Counter

	imputedPredictions *telemetry.Counter
	imputedSlots       *telemetry.Counter
}

func newServerMetrics() *serverMetrics {
	reg := telemetry.NewRegistry()
	m := &serverMetrics{
		reg: reg,
		shed: reg.Counter("scout_http_requests_shed_total",
			"Requests shed with 429 because MaxInFlight was saturated."),
		timeouts: reg.Counter("scout_http_request_timeouts_total",
			"Requests answered 503 because they overran RequestTimeout."),
		reloads: reg.Counter("scout_model_reloads_total",
			"Successful model loads (startup load included)."),
		modelVersion: reg.Gauge("scout_model_version",
			"Version of the currently served model (0 before the first load)."),
		modelBytes: reg.Gauge("scout_model_bytes",
			"Size in bytes of the snapshot behind the served model."),
		modelFormat: reg.Gauge("scout_model_snapshot_format",
			"Format of the served snapshot: 0 JSON, 1 scoutpack (binary)."),
		predByModel: map[string]*telemetry.Counter{},
		fallbacks: reg.Counter("scout_prediction_fallbacks_total",
			"Predictions answered VerdictFallback (legacy routing takes over)."),
		imputedPredictions: reg.Counter("scout_imputed_predictions_total",
			"Predictions whose feature vector carried at least one imputed slot."),
		imputedSlots: reg.Counter("scout_imputed_slots_total",
			"Feature-vector slots filled with training means across all predictions."),
	}
	const predHelp = "Predictions served, by answering model."
	for _, model := range []string{"rf", "cpd+", "exclude-rule", "none"} {
		m.predByModel[model] = reg.Counter("scout_predictions_total", predHelp, telemetry.L("model", model))
	}
	m.predOther = reg.Counter("scout_predictions_total", predHelp, telemetry.L("model", "other"))
	reg.GaugeFunc("scout_model_load_duration_seconds",
		"Wall time of the last model load: store read + snapshot restore (0 before the first load).",
		func() float64 { return math.Float64frombits(m.loadSeconds.Load()) })
	return m
}

// setLoadStats records one model load's observability triple: how long
// the restore took (by the server's injected clock, so tests see exact
// values), how many bytes the snapshot was, and which format it was in.
func (m *serverMetrics) setLoadStats(d time.Duration, bytes int, packed bool) {
	m.loadSeconds.Store(math.Float64bits(d.Seconds()))
	m.modelBytes.Set(int64(bytes))
	format := int64(0)
	if packed {
		format = 1
	}
	m.modelFormat.Set(format)
}

// registerSourceMetrics exports the data source's availability picture —
// per-dataset breaker state and lifetime trip counts — as scrape-time
// callbacks reading the live breaker at the health clock's time (the
// maximum trigger time any prediction asked about; never the wall
// clock). Sources without a health capability export nothing.
func (s *Server) registerSourceMetrics() {
	hr := monitoring.HealthReporterOf(s.source)
	if hr == nil {
		return
	}
	type tripsCounter interface{ Trips(string) int }
	tc, hasTrips := s.source.(tripsCounter)
	for _, d := range s.source.Datasets() {
		name := d.Name
		s.tel.reg.GaugeFunc("scout_breaker_state",
			"Circuit-breaker state per dataset: 0 closed, 1 half-open, 2 open.",
			func() float64 {
				t := math.Float64frombits(s.lastTime.Load())
				switch hr.DatasetHealth(name, t).Breaker {
				case "open":
					return 2
				case "half-open":
					return 1
				default:
					return 0
				}
			},
			telemetry.L("dataset", name))
		s.tel.reg.GaugeFunc("scout_dataset_available",
			"Whether the dataset currently answers queries (1) or is dark (0).",
			func() float64 {
				t := math.Float64frombits(s.lastTime.Load())
				if hr.DatasetHealth(name, t).Available {
					return 1
				}
				return 0
			},
			telemetry.L("dataset", name))
		if hasTrips {
			s.tel.reg.CounterFunc("scout_breaker_trips_total",
				"Times the dataset's circuit breaker has opened.",
				func() float64 { return float64(tc.Trips(name)) },
				telemetry.L("dataset", name))
		}
	}
}

// Metrics returns the server's metric registry (the GET /metrics
// payload); tests and embedding binaries can render or extend it.
func (s *Server) Metrics() *telemetry.Registry { return s.tel.reg }

// nextRequestID mints a per-request ID: the instance prefix (set by the
// binary; empty in tests keeps IDs short and deterministic) plus a
// process-monotonic sequence number. No randomness, no wall clock.
func (s *Server) nextRequestID() string {
	n := s.reqSeq.Add(1)
	if s.InstanceID != "" {
		return s.InstanceID + "-" + strconv.FormatUint(n, 10)
	}
	return "r" + strconv.FormatUint(n, 10)
}

// withRequestID is the outermost middleware: every request — including
// ones later shed, timed out or panicking — gets an ID, echoed in the
// X-Request-Id response header and propagated through the request
// context into the batch scorer and the access log.
func (s *Server) withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := s.nextRequestID()
		w.Header().Set("X-Request-Id", rid)
		next.ServeHTTP(w, r.WithContext(telemetry.WithRequestID(r.Context(), rid)))
	})
}

// withDeadline bounds every request with RequestTimeout. It replaces
// http.TimeoutHandler — which emits its timeout body without a
// Content-Type, so Go content-sniffs our JSON error as text/plain, and
// which runs every handler on a goroutine of its own — with the same
// client-visible semantics through the spine's envelope and no launch: the
// handler runs on the connection's goroutine against a pooled buffered
// response while the request context carries the deadline, and a watchdog
// registered on that context is the only other party. On overrun the
// watchdog answers the real writer with a 503 application/json body at
// the deadline, while the handler is still out, and the handler's context
// expires so in-flight scoring stops at the next chunk boundary.
//
// Who writes to w is decided under the guard's mutex: the watchdog only
// if the handler has not settled, the handler's side only if the watchdog
// has not answered — and then the buffer only if the deadline still
// stands, so a handler that gave up because its context expired (the
// batch scorer writes nothing then) is a 503 whichever party got there
// first. A request that overran keeps its connection and its MaxInFlight
// slot until its handler actually returns: the slot bounds work, and an
// abandoned handler is still work.
func (s *Server) withDeadline(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.RequestTimeout)
		defer cancel()
		g := deadlineGuards.Get().(*deadlineGuard)
		stop := context.AfterFunc(ctx, func() { s.watchDeadline(ctx, g, w) })
		returned := false
		// Deferred so that a panicking handler settles the guard on its way
		// to Recover, which then owns the response unless the watchdog
		// already answered.
		defer func() {
			idle := stop()
			g.mu.Lock()
			g.settled = true
			answered := g.answered
			g.mu.Unlock()
			if returned && !answered {
				if ctx.Err() == context.DeadlineExceeded {
					s.refuseOverrun(w)
				} else {
					g.copyTo(w)
				}
			}
			if idle {
				// The watchdog never started, so nothing else holds g.
				g.recycle()
			}
		}()
		next.ServeHTTP(&g.bufferedResponse, r.WithContext(ctx))
		returned = true
	})
}

// watchDeadline is the deadline watchdog, run on its own goroutine once
// the request context ends. Only an expired deadline is an overrun: when
// the client hung up (net/http cancels the request context) nothing
// overran and nobody is left to answer.
func (s *Server) watchDeadline(ctx context.Context, g *deadlineGuard, w http.ResponseWriter) {
	if ctx.Err() != context.DeadlineExceeded {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.settled {
		return
	}
	g.answered = true
	s.refuseOverrun(w)
	if f, ok := w.(http.Flusher); ok {
		f.Flush() // the handler may hold the connection long after this
	}
}

func (s *Server) refuseOverrun(w http.ResponseWriter) {
	s.tel.timeouts.Inc()
	s.web.WriteError(w, http.StatusServiceUnavailable, "request deadline exceeded")
}

// deadlineGuard is one request's state under withDeadline: the handler's
// buffered response and the two flags, under mu, that decide who answers
// the real writer.
type deadlineGuard struct {
	bufferedResponse
	mu sync.Mutex
	// settled: the handler returned or panicked; the watchdog must not
	// write. answered: the watchdog wrote the 503; nothing else may.
	settled, answered bool
}

// deadlineGuards recycles guards between requests (header map and body
// buffer included) when the watchdog never ran.
var deadlineGuards = sync.Pool{New: func() any {
	return &deadlineGuard{bufferedResponse: bufferedResponse{header: http.Header{}}}
}}

// maxPooledBody keeps one large batch answer from pinning its buffer in
// the pool.
const maxPooledBody = 64 << 10

// recycle wipes every trace of the request and returns g to the pool.
func (g *deadlineGuard) recycle() {
	clear(g.header)
	if cap(g.body) > maxPooledBody {
		g.body = nil
	}
	g.body = g.body[:0]
	g.code = 0
	g.settled, g.answered = false, false
	deadlineGuards.Put(g)
}

// bufferedResponse is withDeadline's parking space for the handler's
// response: headers, status and body land here and are copied to the
// real writer only if the handler beats the deadline.
type bufferedResponse struct {
	header http.Header
	body   []byte
	code   int
}

func (b *bufferedResponse) Header() http.Header { return b.header }

func (b *bufferedResponse) WriteHeader(code int) {
	if b.code == 0 {
		b.code = code
	}
}

func (b *bufferedResponse) Write(p []byte) (int, error) {
	if b.code == 0 {
		b.code = http.StatusOK
	}
	b.body = append(b.body, p...)
	return len(p), nil
}

func (b *bufferedResponse) copyTo(w http.ResponseWriter) {
	dst := w.Header()
	for k, vv := range b.header {
		dst[k] = vv
	}
	code := b.code
	if code == 0 {
		code = http.StatusOK
	}
	w.WriteHeader(code)
	_, _ = w.Write(b.body)
}

// ObservePrediction implements core.PredictObserver: atomic counter
// bumps for every prediction (model mix, fallbacks, imputation), plus a
// structured log line — carrying the request ID the middleware minted —
// on the cold fallback branch. The non-fallback path allocates nothing.
func (s *Server) ObservePrediction(ctx context.Context, p *core.Prediction) {
	if c, ok := s.tel.predByModel[p.Model]; ok {
		c.Inc()
	} else {
		s.tel.predOther.Inc()
	}
	if h := p.Health; h != nil && h.ImputedSlots > 0 {
		s.tel.imputedPredictions.Inc()
		s.tel.imputedSlots.Add(int64(h.ImputedSlots))
	}
	if p.Verdict == core.VerdictFallback {
		s.tel.fallbacks.Inc()
		if s.Access != nil {
			s.Access.Log("prediction_fallback",
				telemetry.F("request_id", telemetry.RequestID(ctx)),
				telemetry.F("model", p.Model),
				telemetry.F("explanation", p.Explanation),
			)
		}
	}
}

var (
	_ core.PredictObserver = (*Server)(nil)
	_ http.Handler         = (*telemetry.Registry)(nil)
)
