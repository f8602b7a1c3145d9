package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"sync/atomic"
	"time"

	"scouts/internal/core"
	"scouts/internal/faults"
	"scouts/internal/monitoring"
	"scouts/internal/serving"
)

// span is one timed call into a layer. The traced pass times the nested
// public entry points one after another on the same input, so a child's
// interval is laid out inside its parent's rather than observed there:
// Start is the parent's start plus the durations of earlier siblings.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0 for a request's root
	Name    string  `json:"name"`
	Request int     `json:"request"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	Items   int     `json:"items,omitempty"`
	Allocs  uint64  `json:"allocs"`

	used   float64 // µs of this span its children already cover
	parent *span
	t0     time.Time
}

func (s *span) durUs() float64 { return s.EndUs - s.StartUs }

// tracer keeps the spans in memory until the run ends.
type tracer struct {
	spans   []*span
	began   time.Time
	request int
}

// start opens a span under parent (nil starts a new request's root).
// Children are laid out back to back from their parent's start. A nil
// tracer records nothing, so the retrain cycle can be written once for
// the measured and the traced pass.
func (tr *tracer) start(parent *span, name string, items int) *span {
	if tr == nil {
		return nil
	}
	s := &span{ID: len(tr.spans) + 1, Name: name, Items: items, parent: parent}
	if parent == nil {
		tr.request++
		s.StartUs = float64(time.Since(tr.began)) / float64(time.Microsecond)
	} else {
		s.Parent = parent.ID
		s.StartUs = parent.StartUs + parent.used
	}
	s.Request = tr.request
	tr.spans = append(tr.spans, s)
	s.Allocs = heapAllocs()
	s.t0 = time.Now()
	return s
}

func (tr *tracer) finish(s *span) {
	if tr == nil {
		return
	}
	tr.close(s, time.Since(s.t0), heapAllocs()-s.Allocs)
}

func (tr *tracer) close(s *span, d time.Duration, allocs uint64) {
	us := float64(d) / float64(time.Microsecond)
	s.EndUs = s.StartUs + us
	s.Allocs = allocs
	if s.parent != nil {
		s.parent.used += us
	}
}

// time runs f as a span under parent.
func (tr *tracer) time(parent *span, name string, items int, f func()) *span {
	s := tr.start(parent, name, items)
	f()
	tr.finish(s)
	return s
}

// spanStats gathers the durations (ms), items and allocations of every
// span with one name.
type spanStats struct {
	ms     []float64
	items  int
	allocs uint64
}

// spanTable is the spans by name; of answers zeroes for a name the
// workload's trace does not have.
type spanTable map[string]*spanStats

func (t spanTable) of(name string) *spanStats {
	if st := t[name]; st != nil {
		return st
	}
	return &spanStats{}
}

func (tr *tracer) byName() spanTable {
	out := spanTable{}
	for _, s := range tr.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		st.ms = append(st.ms, s.durUs()/1000)
		st.items += max(s.Items, 1)
		st.allocs += s.Allocs
	}
	return out
}

func (st *spanStats) sumMs() float64 {
	var sum float64
	for _, v := range st.ms {
		sum += v
	}
	return sum
}

func (st *spanStats) medianMs() float64 { return medianOr0(st.ms) }

// perItemMs is the layer's time per incident.
func (st *spanStats) perItemMs() float64 { return st.sumMs() / float64(max(st.items, 1)) }

func (st *spanStats) allocsPerItem() float64 { return float64(st.allocs) / float64(max(st.items, 1)) }

// coverage is, per level, the children's share of their parent's time:
// the median over the level's spans, so one preempted call cannot move
// it. The levels are the ones whose children are meant to be exhaustive;
// a value far from 1 means the separately timed parts do not add up to
// the whole and the budget built from them cannot be trusted.
func (tr *tracer) coverage() map[string]float64 {
	shares := map[string][]float64{}
	for _, s := range tr.spans {
		if s.used > 0 && !openLevels[s.Name] {
			shares[s.Name] = append(shares[s.Name], s.used/s.durUs())
		}
	}
	out := map[string]float64{}
	for name, v := range shares {
		out[name] = median(v)
	}
	return out
}

// openLevels have children that are deliberately not exhaustive:
// featurization's own arithmetic is most of it, the monitoring calls
// under it are the part another layer owns.
var openLevels = map[string]bool{"core.featurize": true}

func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Coverage map[string]float64 `json:"coverage"`
		Spans    []*span            `json:"spans"`
	}{tr.coverage(), tr.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// counted is the traced pass's DataSource decorator: it counts and times
// every call the featurizer makes into monitoring. It is used from one
// goroutine. decorate picks the variant that offers exactly the optional
// capabilities the wrapped source has, because the featurizer changes
// path on them: without StatsSource it materialises baseline windows,
// and with a HealthReporter it asks for availability instead of reading
// the registry.
type counted struct {
	inner monitoring.DataSource
	calls int
	busy  time.Duration
}

func (c *counted) done(t0 time.Time) {
	c.calls++
	c.busy += time.Since(t0)
}

func (c *counted) Datasets() []monitoring.Descriptor { return c.inner.Datasets() }

func (c *counted) SeriesWindow(dataset, component string, from, to float64) []float64 {
	defer c.done(time.Now())
	return c.inner.SeriesWindow(dataset, component, from, to)
}

func (c *counted) EventsWindow(dataset, component string, from, to float64) []monitoring.EventRecord {
	defer c.done(time.Now())
	return c.inner.EventsWindow(dataset, component, from, to)
}

type countedStats struct {
	*counted
	stats monitoring.StatsSource
}

func (c countedStats) WindowStats(dataset, component string, from, to float64) (monitoring.Stats, bool) {
	defer c.done(time.Now())
	return c.stats.WindowStats(dataset, component, from, to)
}

func (c countedStats) EventCount(dataset, component string, from, to float64) int {
	defer c.done(time.Now())
	return c.stats.EventCount(dataset, component, from, to)
}

// Health queries are forwarded uncounted: they are per prediction, not
// per window, and the breaker answers them from its own state.
type countedHealth struct {
	*counted
	monitoring.HealthReporter
}

type countedStatsHealth struct {
	countedStats
	monitoring.HealthReporter
}

func decorate(src monitoring.DataSource) (monitoring.DataSource, *counted) {
	c := &counted{inner: src}
	stats, hasStats := src.(monitoring.StatsSource)
	health := monitoring.HealthReporterOf(src)
	switch {
	case hasStats && health != nil:
		return countedStatsHealth{countedStats{c, stats}, health}, c
	case hasStats:
		return countedStats{c, stats}, c
	case health != nil:
		return countedHealth{c, health}, c
	}
	return c, c
}

// layers is everything the traced pass calls directly: a Scout restored
// from the served pack over the same kind of source the server has, a
// second one over a decorated source (used only to attribute
// featurization time to monitoring, so the decorator's own clock reads
// stay out of every other span), and the handlers of the booted system.
type layers struct {
	t       *target
	cl      *client
	scout   *core.Scout
	counted *core.Scout
	source  *counted
	handler http.Handler // the replica's
	gateway http.Handler // fleet only
	null    *nullServer
	tr      *tracer
}

func newLayers(t *target, cl *client) (*layers, error) {
	pack, topo, tel := t.w.pack, t.w.gen.Topology(), t.w.gen.Telemetry()
	sc, err := core.Restore(pack, topo, faults.NewBreaker(tel, faults.BreakerParams{}))
	if err != nil {
		return nil, err
	}
	sc.SetDegradationPolicy(core.DegradationPolicy{MinCoverage: minCoverage})
	src, c := decorate(faults.NewBreaker(tel, faults.BreakerParams{}))
	csc, err := core.Restore(pack, topo, src)
	if err != nil {
		return nil, err
	}
	l := &layers{t: t, cl: cl, scout: sc, counted: csc, source: c, tr: &tracer{began: time.Now()}}
	if t.fleet != nil {
		l.handler = t.fleet.replicas[0].srv.Handler()
		l.gateway = t.fleet.gw.Handler()
	} else {
		l.handler = t.rep.srv.Handler()
	}
	if l.null, err = newNullServer(); err != nil {
		return nil, err
	}
	return l, nil
}

// nullServer answers every POST with the bytes the client last stored:
// the harness's own round-trip cost, with the real request and response
// sizes but no work behind them.
type nullServer struct {
	http   *http.Server
	url    string
	done   chan error
	answer atomic.Pointer[[]byte] // set by the client between requests
}

func newNullServer() (*nullServer, error) {
	n := &nullServer{}
	var err error
	n.http, n.url, n.done, err = listen(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The body is the harness's own and already bounded by it.
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(*n.answer.Load()) // a failed write shows as the client's error
	}))
	return n, err
}

func (n *nullServer) close() { shutdown(n.http, n.done) }

// serve calls a handler in-process, as the HTTP server would.
func serve(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// traceRequest records the span tree of one replayed request. url and
// body are what the client sends; items are the incidents it carries.
func (l *layers) traceRequest(url, path string, body []byte, items []item) error {
	tr := l.tr
	var status int
	var answer []byte
	var err error
	root := tr.time(nil, "http", len(items), func() {
		var resp []byte
		status, resp, _, err = l.cl.post(url, body)
		answer = bytes.Clone(resp)
	})
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("traced request: HTTP %d, %v", status, err)
	}
	l.null.answer.Store(&answer)
	tr.time(root, "net", 0, func() { _, _, _, err = l.cl.post(l.null.url, body) })
	if err != nil {
		return fmt.Errorf("traced request: null server: %w", err)
	}
	parent := root
	if l.gateway != nil {
		// client ⊃ gateway handler ⊃ replica round trip ⊃ replica handler
		gw := tr.time(root, "gateway.handler", len(items), func() { serve(l.gateway, "/v1/predict?team="+team, body) })
		parent = tr.time(gw, "gateway.upstream", len(items), func() {
			_, _, _, err = l.cl.post(l.t.fleet.replicas[0].url+"/v1/predict", body)
		})
		if err != nil {
			return fmt.Errorf("traced request: replica: %w", err)
		}
		tr.time(parent, "net", 0, func() { _, _, _, err = l.cl.post(l.null.url, body) })
		if err != nil {
			return fmt.Errorf("traced request: null server: %w", err)
		}
	}
	h := tr.time(parent, "serving.handler", len(items), func() { serve(l.handler, path, body) })
	l.traceHandler(h, body, answer, items)
	return nil
}

// traceHandler times what a predict handler does between reading the
// request and writing the answer.
func (l *layers) traceHandler(h *span, body, answer []byte, items []item) {
	tr := l.tr
	batch := len(items) > 1
	tr.time(h, "serving.decode", len(items), func() {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if batch {
			var req serving.BatchPredictRequest
			_ = dec.Decode(&req) // the harness marshalled it
		} else {
			var req serving.PredictRequest
			_ = dec.Decode(&req)
		}
	})

	sc, fb := l.scout, l.scout.Builder()
	ctx := context.Background()
	var p *span
	if batch {
		reqs := batchRequests(items)
		p = tr.time(h, "core.predict", len(items), func() { sc.PredictBatchCtx(ctx, reqs) })
	} else {
		r := &items[0].req
		p = tr.time(h, "core.predict", 1, func() { sc.PredictCtx(ctx, r.Title, r.Body, r.Components, r.Time) })
	}

	// The parts of a prediction, item by item; only RF-bound items reach
	// featurization and the forest.
	var exs []core.Extraction
	tr.time(p, "core.extract", len(items), func() {
		for i := range items {
			r := &items[i].req
			exs = append(exs, fb.Extract(r.Title, r.Body, r.Components))
		}
	})
	var xs [][]float64
	var rfItems []int
	for i := range items {
		if items[i].want.Model == "rf" {
			rfItems = append(rfItems, i)
			xs = append(xs, make([]float64, len(fb.FeatureNames())))
		}
	}
	if len(rfItems) > 0 {
		f := tr.time(p, "core.featurize", len(rfItems), func() {
			for k, i := range rfItems {
				fb.FeaturizeInto(xs[k], exs[i], items[i].req.Time)
			}
		})
		// The same featurization again over the decorated source: what
		// of it was spent inside monitoring calls.
		cfb := l.counted.Builder()
		calls0, busy0 := l.source.calls, l.source.busy
		x := make([]float64, len(xs[0]))
		for _, i := range rfItems {
			cfb.FeaturizeInto(x, exs[i], items[i].req.Time)
		}
		tr.close(tr.start(f, "monitoring.calls", l.source.calls-calls0), l.source.busy-busy0, 0)
		rf := sc.Forest()
		tr.time(p, "forest.predict", len(rfItems), func() {
			if batch {
				rf.PredictProbBatch(xs, nil)
				return
			}
			rf.PredictProb(xs[0])
		})
		tr.time(p, "forest.explain", len(rfItems), func() {
			for _, x := range xs {
				rf.Explain(x)
			}
		})
	}

	// The answer was verified when it was served; decoding it gives the
	// value the handler encoded.
	var resp any = &serving.PredictResponse{}
	if batch {
		resp = &serving.BatchPredictResponse{}
	}
	_ = json.Unmarshal(answer, resp)
	var buf bytes.Buffer
	tr.time(h, "serving.encode", len(items), func() { _ = json.NewEncoder(&buf).Encode(resp) })
}

// sortedKeys is the deterministic order maps are reported in.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
