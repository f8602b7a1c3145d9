// Package httpx is the HTTP spine scoutd (internal/serving) and scoutgw
// (internal/gateway) both mount, so that an endpoint is a decode call plus
// a handler. It owns the decisions every daemon endpoint shares: the JSON
// envelope (WriteJSON, WriteError), the capped strict decode (Decode,
// DecodeBytes), the instrumented mux with its JSON 404 (Mux — the only
// code that touches http.ServeMux, so no route can go unobserved), panic
// recovery (Recover), and the hardened server + signal-driven drain both
// mains run (Serve).
package httpx

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"
	"strconv"
	"sync"

	"scouts/internal/telemetry"
)

// Spine is one daemon's HTTP state: its logger and the request series it
// pre-registered. Build one per telemetry.Registry (a duplicate series
// panics); any number of Muxes can be cut from it.
type Spine struct {
	logger    *log.Logger
	endpoints map[string]*endpointMetrics
	panics    *telemetry.Counter
}

// New registers the request series on reg under prefix — "scout_http" for
// scoutd, "scout_gw_http" for scoutgw — one latency histogram and one
// counter per status code for every endpoint label in endpoints, plus the
// "other" label the catch-all records under. logger must be non-nil.
func New(reg *telemetry.Registry, prefix string, endpoints []string, logger *log.Logger) *Spine {
	sp := &Spine{
		logger:    logger,
		endpoints: make(map[string]*endpointMetrics, len(endpoints)+1),
		panics: reg.Counter(prefix+"_panics_recovered_total",
			"Handler panics converted to 500 responses by the recovery middleware."),
	}
	for _, ep := range endpoints {
		sp.endpoints[ep] = newEndpointMetrics(reg, prefix, ep)
	}
	sp.endpoints[catchAll] = newEndpointMetrics(reg, prefix, catchAll)
	return sp
}

// errorBody is the error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// encodeBufs pools the response-encoding buffers: encoding into a pooled
// buffer and writing it once keeps the per-request JSON garbage out of the
// predict hot path (json.NewEncoder per response was one of the larger
// allocation sources) and lets us set Content-Length.
var encodeBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// WriteJSON answers status with v encoded as JSON.
func (sp *Spine) WriteJSON(w http.ResponseWriter, status int, v any) {
	buf := encodeBufs.Get().(*bytes.Buffer)
	defer encodeBufs.Put(buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		// Should be unreachable for our response types; fail the request
		// rather than emit a truncated body. Written by hand, not via
		// http.Error: that would label the JSON body text/plain, and the
		// error-path contract is that EVERY error response is
		// application/json.
		sp.logger.Printf("httpx: encoding response: %v", err)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = w.Write([]byte(`{"error":"internal encoding failure"}` + "\n"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	if _, err := w.Write(buf.Bytes()); err != nil {
		sp.logger.Printf("httpx: writing response: %v", err)
	}
}

// WriteError answers status with the {"error": msg} envelope.
func (sp *Spine) WriteError(w http.ResponseWriter, status int, msg string) {
	sp.WriteJSON(w, status, errorBody{Error: msg})
}

// Decode decodes the request body into v under a byte cap, rejecting
// unknown fields (a typoed field silently zeroing a required value must
// not be served as a confident wrong answer) and anything but whitespace
// after the JSON value. It answers false after writing the error
// response: 413 when the cap tripped, 400 for malformed, unknown-field or
// trailing-data JSON.
func (sp *Spine) Decode(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	dec := strictDecoder(http.MaxBytesReader(w, r.Body, limit))
	err := dec.Decode(v)
	if err == nil {
		// The body must end here: Token reads to EOF through whitespace,
		// and to the cap through a whitespace flood.
		if _, err = dec.Token(); err == io.EOF {
			return true
		}
		var tooBig *http.MaxBytesError
		if !errors.As(err, &tooBig) {
			err = errTrailingData
		}
	}
	sp.rejectBody(w, err)
	return false
}

// DecodeBytes is Decode for a handler that forwards the body verbatim: the
// whole body is read under the cap, checked by decoding it into v, and
// returned.
func (sp *Spine) DecodeBytes(w http.ResponseWriter, r *http.Request, limit int64, v any) ([]byte, bool) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err == nil {
		dec := strictDecoder(bytes.NewReader(raw))
		if err = dec.Decode(v); err == nil && len(bytes.TrimLeft(raw[dec.InputOffset():], jsonSpace)) > 0 {
			err = errTrailingData
		}
	}
	if err != nil {
		sp.rejectBody(w, err)
		return nil, false
	}
	return raw, true
}

// jsonSpace is the whitespace JSON allows between tokens.
const jsonSpace = " \t\r\n"

// errTrailingData refuses a body that goes on after its JSON value.
var errTrailingData = errors.New("data after the JSON value")

func strictDecoder(body io.Reader) *json.Decoder {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	return dec
}

func (sp *Spine) rejectBody(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		sp.WriteError(w, http.StatusRequestEntityTooLarge,
			"request body exceeds "+strconv.FormatInt(tooBig.Limit, 10)+" bytes")
		return
	}
	sp.WriteError(w, http.StatusBadRequest, "bad request: "+err.Error())
}

// Recover turns a handler panic into a logged 500: one poisoned request
// must not take down every other incident's scorer. The net/http abort
// sentinel is re-raised — it is control flow, not a bug.
func (sp *Spine) Recover(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			sp.panics.Inc()
			sp.logger.Printf("httpx: panic in %s %s: %v", r.Method, r.URL.Path, rec)
			sp.WriteError(w, http.StatusInternalServerError, "internal server error")
		}()
		next.ServeHTTP(w, r)
	})
}
