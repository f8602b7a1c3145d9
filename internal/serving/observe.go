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
	"scouts/internal/httpx"
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

// setLoadStats records one model load's observability pair: how long the
// restore took (by the server's injected clock, so tests see exact
// values) and how many bytes the snapshot was.
func (m *serverMetrics) setLoadStats(d time.Duration, bytes int) {
	m.loadSeconds.Store(math.Float64bits(d.Seconds()))
	m.modelBytes.Set(int64(bytes))
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
// process-monotonic sequence number. No randomness, no wall clock. The ID
// is built on the stack, so the string is its one allocation.
func (s *Server) nextRequestID() string {
	n := s.reqSeq.Add(1)
	var buf [64]byte
	id := append(buf[:0], 'r')
	if s.InstanceID != "" {
		id = append(append(buf[:0], s.InstanceID...), '-')
	}
	return string(strconv.AppendUint(id, n, 10))
}

// withRequestID is the outermost middleware: every request — including
// ones later shed, timed out or panicking — gets an ID, echoed in the
// X-Request-Id response header and carried by the request's record, the
// context the rest of the chain, the batch scorer and the access log see
// (telemetry.RequestID reads it there). The record is drawn here and
// released when the chain returns.
func (s *Server) withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c := newRequestCtx(r.Context())
		c.id = s.nextRequestID()
		w.Header().Set("X-Request-Id", c.id)
		next.ServeHTTP(w, r.WithContext(c))
		c.release()
	})
}

// withDeadline bounds every request with RequestTimeout. It replaces
// http.TimeoutHandler — which emits its timeout body without a
// Content-Type, so Go content-sniffs our JSON error as text/plain, and
// which runs every handler on a goroutine of its own — with the same
// client-visible semantics through the spine's envelope and no launch: the
// handler runs on the connection's goroutine against the record's buffered
// response while the record, the request's context, carries the deadline,
// and the record's watchdog timer, armed for that deadline, is the only
// other party. On overrun the watchdog expires the context and answers the
// real writer with a 503 application/json body at the deadline, while the
// handler is still out, so in-flight scoring stops at the next chunk
// boundary. The deadline is the earlier of the parent context's and now +
// RequestTimeout: a request that arrives with an earlier one is answered
// at that one.
//
// Who writes to w is decided under the record's mutex: the watchdog only
// if the handler has not settled, the handler's side only if the watchdog
// has not answered — and then the buffer only if the deadline still
// stands, so a handler that gave up because its context expired (the
// batch scorer writes nothing then) is a 503 whichever party got there
// first. A request that overran keeps its connection and its MaxInFlight
// slot until its handler actually returns: the slot bounds work, and an
// abandoned handler is still work.
//
// Under Handler() the record is withRequestID's; served without it (as
// tests do), withDeadline draws and releases one of its own.
func (s *Server) withDeadline(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, shared := r.Context().(*requestCtx)
		if !shared {
			c = newRequestCtx(r.Context())
			r = r.WithContext(c)
		}
		c.s, c.w = s, w
		c.deadline = time.Now().Add(s.RequestTimeout)
		if d, ok := c.parent.Deadline(); ok && d.Before(c.deadline) {
			c.deadline = d
		}
		c.armed = true
		c.timer.Reset(time.Until(c.deadline))
		returned := false
		// Deferred so that a panicking handler settles the record on its way
		// to Recover, which then owns the response unless the watchdog
		// already answered.
		defer func() {
			idle := c.timer.Stop()
			c.mu.Lock()
			c.settled = true
			c.kept = c.kept || !idle // the watchdog ran, and may still hold c
			answered := c.answered
			c.mu.Unlock()
			if returned && !answered {
				if c.Err() == context.DeadlineExceeded {
					s.refuseOverrun(w)
				} else {
					c.copyTo(w)
				}
			}
			if !shared {
				c.release()
			}
		}()
		next.ServeHTTP(&c.bufferedResponse, r)
		returned = true
	})
}

// watchDeadline is the record's timer callback, run on a goroutine of its
// own at the deadline: it expires the context, then answers the overrun.
// When the client hung up first (net/http cancels the parent context) or
// the handler has settled, nothing overran or nobody is left to answer.
func (c *requestCtx) watchDeadline() {
	c.state.CompareAndSwap(ctxLive, ctxExpired)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closeDone()
	if c.settled || c.Err() != context.DeadlineExceeded {
		return
	}
	c.answered = true
	c.s.refuseOverrun(c.w)
	if f, ok := c.w.(http.Flusher); ok {
		f.Flush() // the handler may hold the connection long after this
	}
}

func (s *Server) refuseOverrun(w http.ResponseWriter) {
	s.tel.timeouts.Inc()
	s.web.WriteError(w, http.StatusServiceUnavailable, "request deadline exceeded")
}

// requestCtx is one request's record, and it is the request's
// context.Context: the ID withRequestID minted, the deadline withDeadline
// armed, the handler's buffered response, the watchdog timer with what its
// callback needs, and the flags, under mu, that decide who answers the
// real writer. Records are pooled, so whatever the chain hands the
// request's context to must be done with it when the chain returns —
// net/http's own rule for the request.
type requestCtx struct {
	parent context.Context
	id     string

	bufferedResponse
	// timer runs watchDeadline; made once per record, armed per request.
	// s, w, deadline and armed are set before the timer is armed.
	timer    *time.Timer
	s        *Server
	w        http.ResponseWriter
	deadline time.Time
	armed    bool
	// state is ctxLive until the watchdog expires the context
	// (ctxExpired) or the request ends with a Done channel handed out
	// (ctxEnded), whichever comes first.
	state atomic.Int32

	mu sync.Mutex
	// settled: the handler returned or panicked; the watchdog must not
	// write. answered: the watchdog wrote the 503; nothing else may.
	settled, answered bool
	// done is made by the first Done call and closed by whichever of the
	// parent's end, the watchdog and the request's end comes first; stop
	// unregisters it from the parent.
	done chan struct{}
	stop func() bool
	// kept: the watchdog ran or a Done channel was handed out, so another
	// party may still hold the record and it must not be pooled again.
	kept bool
}

// The values of requestCtx.state.
const (
	ctxLive int32 = iota
	ctxExpired
	ctxEnded
)

// requestCtxs recycles records between requests (timer, header map and
// body buffer included).
var requestCtxs = sync.Pool{New: func() any {
	c := &requestCtx{bufferedResponse: bufferedResponse{header: http.Header{}}}
	c.timer = time.AfterFunc(time.Hour, c.watchDeadline)
	c.timer.Stop()
	return c
}}

// newRequestCtx draws a record for a request whose context is parent.
func newRequestCtx(parent context.Context) *requestCtx {
	c := requestCtxs.Get().(*requestCtx)
	c.parent = parent
	return c
}

// Deadline is the armed deadline, or the parent's before withDeadline
// arms one.
func (c *requestCtx) Deadline() (time.Time, bool) {
	if c.armed {
		return c.deadline, true
	}
	return c.parent.Deadline()
}

// Err reports the parent's error first (Canceled when the client hung up),
// then DeadlineExceeded once the watchdog has fired.
func (c *requestCtx) Err() error {
	if err := c.parent.Err(); err != nil {
		return err
	}
	switch c.state.Load() {
	case ctxExpired:
		return context.DeadlineExceeded
	case ctxEnded:
		return context.Canceled
	}
	return nil
}

// Done makes the context's channel on first use, and only then registers
// it on the parent: the predict and batch paths poll Err instead, so a
// served request never makes one.
func (c *requestCtx) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done == nil {
		c.done = make(chan struct{})
		c.kept = true
		if c.Err() != nil {
			c.closeDone()
		} else {
			c.stop = context.AfterFunc(c.parent, func() {
				c.mu.Lock()
				defer c.mu.Unlock()
				c.closeDone()
			})
		}
	}
	return c.done
}

// closeDone closes a Done channel that was handed out, once. c.mu is held.
func (c *requestCtx) closeDone() {
	if c.done == nil {
		return
	}
	select {
	case <-c.done:
	default:
		close(c.done)
	}
}

// Value answers telemetry.RequestIDKey with the record itself once it
// carries an ID, and forwards every other key to the parent.
func (c *requestCtx) Value(key any) any {
	if key == (telemetry.RequestIDKey{}) && c.id != "" {
		return c
	}
	return c.parent.Value(key)
}

// RequestID is the ID withRequestID minted.
func (c *requestCtx) RequestID() string { return c.id }

// release ends the request for the record's owner. A record nobody else
// can hold — the watchdog never ran and no Done channel was handed out —
// is wiped of every trace of the request and pooled; otherwise its Done
// channel closes, as a cancelled context's does, and the garbage collector
// takes it.
func (c *requestCtx) release() {
	c.mu.Lock()
	kept, stop := c.kept, c.stop
	if c.done != nil {
		c.state.CompareAndSwap(ctxLive, ctxEnded)
		c.closeDone()
	}
	c.mu.Unlock()
	if kept {
		if stop != nil {
			stop()
		}
		return
	}
	clear(c.header)
	if cap(c.body) > httpx.MaxPooledBuffer {
		c.body = nil
	}
	c.body = c.body[:0]
	c.code = 0
	c.parent, c.id, c.s, c.w = nil, "", nil, nil
	c.deadline, c.armed = time.Time{}, false
	c.state.Store(ctxLive)
	c.settled, c.answered = false, false
	requestCtxs.Put(c)
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
func (s *Server) ObservePrediction(ctx context.Context, p core.Prediction) {
	if c, ok := s.tel.predByModel[p.Model]; ok {
		c.Inc()
	} else {
		s.tel.predOther.Inc()
	}
	if h := &p.Health; p.HasHealth && h.ImputedSlots > 0 {
		s.tel.imputedPredictions.Inc()
		s.tel.imputedSlots.Add(int64(h.ImputedSlots))
	}
	if p.Verdict == core.VerdictFallback {
		s.tel.fallbacks.Inc()
		if s.Access != nil {
			s.Access.Log("prediction_fallback",
				telemetry.F("request_id", telemetry.RequestID(ctx)),
				telemetry.F("model", p.Model),
				telemetry.F("explanation", p.Explanation()),
			)
		}
	}
}

var (
	_ core.PredictObserver = (*Server)(nil)
	_ http.Handler         = (*telemetry.Registry)(nil)
)
