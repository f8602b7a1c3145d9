package httpx

import (
	"net/http"
	"strconv"
	"time"

	"scouts/internal/telemetry"
)

// catchAll is the endpoint label of every request no route matched.
const catchAll = "other"

// statusCodes are the code label values of <prefix>_requests_total: every
// status either daemon originates, with "other" for the rest (statuses the
// gateway relays from a replica). The fixed set keeps label cardinality
// bounded.
var statusCodes = []int{200, 400, 404, 413, 429, 500, 502, 503}

// endpointMetrics is one endpoint's request instrumentation, held by
// pointer so recording on the request path is atomic adds only — no
// registry access, no label hashing.
type endpointMetrics struct {
	dur *telemetry.Histogram
	// byCode is read-only after construction; map reads without a lock
	// are safe.
	byCode map[int]*telemetry.Counter
	other  *telemetry.Counter
}

func newEndpointMetrics(reg *telemetry.Registry, prefix, endpoint string) *endpointMetrics {
	const reqHelp = "HTTP requests by endpoint and status code."
	ep := telemetry.L("endpoint", endpoint)
	em := &endpointMetrics{
		dur: reg.Histogram(prefix+"_request_duration_seconds",
			"HTTP request latency in seconds by endpoint.", nil, ep),
		byCode: make(map[int]*telemetry.Counter, len(statusCodes)),
		other:  reg.Counter(prefix+"_requests_total", reqHelp, ep, telemetry.L("code", "other")),
	}
	for _, code := range statusCodes {
		em.byCode[code] = reg.Counter(prefix+"_requests_total", reqHelp, ep, telemetry.L("code", strconv.Itoa(code)))
	}
	return em
}

func (em *endpointMetrics) codeCounter(status int) *telemetry.Counter {
	if c, ok := em.byCode[status]; ok {
		return c
	}
	return em.other
}

// Mux is the instrumented route table: the only way to register a route
// is Handle, which always observes, and the catch-all is always a JSON 404.
type Mux struct {
	sp     *Spine
	mux    *http.ServeMux
	clock  func() time.Time
	access *telemetry.Logger
}

// Mux cuts a fresh route table from the spine. clock times requests for
// the latency histograms (injected so a scrape under a fake clock is
// reproducible); access, when non-nil, receives one structured line per
// request.
func (sp *Spine) Mux(clock func() time.Time, access *telemetry.Logger) *Mux {
	m := &Mux{sp: sp, mux: http.NewServeMux(), clock: clock, access: access}
	m.Handle("/", catchAll, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sp.WriteError(w, http.StatusNotFound, "no such endpoint: "+r.URL.Path)
	}))
	return m
}

// Handle registers h for pattern, recorded under the endpoint label, which
// must be one the spine was built with.
func (m *Mux) Handle(pattern, endpoint string, h http.Handler) {
	m.mux.Handle(pattern, m.instrument(endpoint, h))
}

func (m *Mux) ServeHTTP(w http.ResponseWriter, r *http.Request) { m.mux.ServeHTTP(w, r) }

// statusWriter captures the response status for the request counters.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// instrument wraps one endpoint's handler with its latency histogram,
// status counters and the structured access log. Every mux registration
// passes through it — a handler that did not would serve invisible
// requests — and two tests hold that: TestUndeclaredEndpointPanicsAtRegistration
// and serving's TestMetricsEndpoint, which pins each route's exact samples.
func (m *Mux) instrument(endpoint string, next http.Handler) http.Handler {
	em := m.sp.endpoints[endpoint]
	if em == nil {
		panic("httpx: endpoint " + strconv.Quote(endpoint) + " was not declared to New")
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := m.clock()
		sw := &statusWriter{ResponseWriter: w}
		done := false
		// Observation is deferred so a panicking handler still records a
		// sample (as a 500; Recover owns the response).
		defer func() {
			elapsed := m.clock().Sub(start)
			em.dur.ObserveDuration(elapsed)
			status := sw.code
			if status == 0 {
				status = http.StatusOK
			}
			if !done {
				status = http.StatusInternalServerError
			}
			em.codeCounter(status).Inc()
			if m.access != nil {
				m.access.Log("http_request",
					telemetry.F("request_id", telemetry.RequestID(r.Context())),
					telemetry.F("method", r.Method),
					telemetry.F("endpoint", endpoint),
					telemetry.F("status", status),
					telemetry.F("duration_ms", float64(elapsed)/1e6),
				)
			}
		}()
		next.ServeHTTP(sw, r)
		done = true
	})
}
