// Package telemetry is the repo's self-observability plane: a
// stdlib-only instrumentation kit whose hot path is nothing but atomic
// adds. A Registry holds named counters, gauges and fixed-bucket
// histograms — all pre-registered with their full label sets at startup,
// so recording a sample never touches a lock, never hashes a label map
// and never allocates — and renders them in the Prometheus text
// exposition format (it is an http.Handler, mountable as GET /metrics).
//
// Design rules, enforced by tests:
//
//   - Hot path is atomic-only. Counter.Inc/Add, Gauge.Set and
//     Histogram.Observe are lock-free and zero-alloc; the registry mutex
//     guards registration and scraping only.
//   - Registration is startup-time. Metrics are created once (NewServer,
//     Handler()) and held by pointer; a duplicate or inconsistent
//     registration panics immediately rather than corrupting a scrape.
//   - Exposition is deterministic. Families render sorted by name,
//     series sorted by label signature, label keys sorted at
//     registration; no timestamps, no wall-clock values. Under an
//     injected clock a scrape is golden-testable byte for byte.
package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative; counters only go up).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an integer-valued metric that can go up and down (model
// versions, in-flight requests, breaker states).
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution. Buckets are chosen at
// registration; observing walks the (short) bound slice and lands in two
// atomic adds — one bucket count, one fixed-point sum — so a histogram
// sample is safe inside the zero-alloc serving path. The sum is kept in
// nanounits (1e-9 of the observed unit), which is exact for durations
// observed through ObserveDuration.
type Histogram struct {
	bounds []float64      // strictly increasing upper bounds; +Inf implicit
	counts []atomic.Int64 // len(bounds)+1, non-cumulative; cumulated at scrape
	sum    atomic.Int64   // fixed-point, 1e-9 resolution
}

// DefBuckets are the default latency buckets in seconds, 500µs to 10s.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(int64(v * 1e9))
}

// ObserveDuration records a duration in seconds, with an exact
// (integer-nanosecond) contribution to the sum.
func (h *Histogram) ObserveDuration(d time.Duration) {
	v := float64(d) / 1e9
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
}

// Label is one metric dimension. Values are escaped at render time;
// keys must be valid Prometheus label names.
type Label struct{ Key, Value string }

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// metricKind discriminates how a family renders.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// series is one labeled instance inside a family. Exactly one of the
// value fields is set; fn-backed series are read at scrape time (breaker
// state lives in the breaker, not in a stored gauge).
type series struct {
	labels string // rendered `k="v",...`, keys sorted; "" when unlabeled
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64
}

type family struct {
	name   string
	help   string
	kind   metricKind
	bounds []float64
	series []*series
}

// Registry is a set of metric families with a deterministic text
// exposition. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{fams: map[string]*family{}} }

// Counter registers (or panics on conflict) a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.add(name, help, kindCounter, nil, &series{c: c}, labels)
	return c
}

// CounterFunc registers a counter whose value is read at scrape time.
// The callback must be monotone for the series to mean anything; the
// registry does not enforce it.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.add(name, help, kindCounter, nil, &series{fn: fn}, labels)
}

// Gauge registers a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{}
	r.add(name, help, kindGauge, nil, &series{g: g}, labels)
	return g
}

// GaugeFunc registers a gauge whose value is read at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.add(name, help, kindGauge, nil, &series{fn: fn}, labels)
}

// Histogram registers a histogram series. bounds must be strictly
// increasing; nil selects DefBuckets. Every series of one family must
// share the same bounds.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %s bounds not strictly increasing", name))
		}
	}
	h := &Histogram{bounds: slices.Clone(bounds), counts: make([]atomic.Int64, len(bounds)+1)}
	r.add(name, help, kindHistogram, h.bounds, &series{h: h}, labels)
	return h
}

func (r *Registry) add(name, help string, kind metricKind, bounds []float64, s *series, labels []Label) {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	s.labels = renderLabels(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, bounds: bounds}
		r.fams[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %s re-registered with a different type", name))
	}
	if f.help != help {
		panic(fmt.Sprintf("telemetry: metric %s re-registered with different help text", name))
	}
	if kind == kindHistogram && !slices.Equal(f.bounds, bounds) {
		panic(fmt.Sprintf("telemetry: histogram %s re-registered with different buckets", name))
	}
	for _, prev := range f.series {
		if prev.labels == s.labels {
			panic(fmt.Sprintf("telemetry: duplicate series %s{%s}", name, s.labels))
		}
	}
	f.series = append(f.series, s)
	slices.SortFunc(f.series, func(a, b *series) int { return strings.Compare(a.labels, b.labels) })
}

// validName checks the Prometheus metric/label name grammar.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

var valueEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// renderLabels pre-bakes the sorted `k="v",...` signature at
// registration so scraping only concatenates.
func renderLabels(metric string, labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := slices.Clone(labels)
	slices.SortFunc(ls, func(a, b Label) int { return strings.Compare(a.Key, b.Key) })
	var sb strings.Builder
	for i, l := range ls {
		if !validName(l.Key) || l.Key == "le" {
			panic(fmt.Sprintf("telemetry: metric %s has invalid label key %q", metric, l.Key))
		}
		if i > 0 {
			if ls[i-1].Key == l.Key {
				panic(fmt.Sprintf("telemetry: metric %s repeats label key %q", metric, l.Key))
			}
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteString(`="`)
		sb.WriteString(valueEscaper.Replace(l.Value))
		sb.WriteByte('"')
	}
	return sb.String()
}

// WritePrometheus renders every family in the text exposition format:
// families sorted by name, series sorted by label signature, histogram
// buckets cumulative with the canonical +Inf terminal, no timestamps.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	slices.Sort(names)
	var buf bytes.Buffer
	for _, name := range names {
		f := r.fams[name]
		fmt.Fprintf(&buf, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		fmt.Fprintf(&buf, "# TYPE %s %s\n", f.name, typeString(f.kind))
		for _, s := range f.series {
			writeSeries(&buf, f, s)
		}
	}
	_, err := w.Write(buf.Bytes())
	return err
}

func typeString(k metricKind) string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

func writeSeries(buf *bytes.Buffer, f *family, s *series) {
	switch {
	case s.h != nil:
		cum := int64(0)
		for i := range s.h.counts {
			cum += s.h.counts[i].Load()
			le := "+Inf"
			if i < len(s.h.bounds) {
				le = formatFloat(s.h.bounds[i])
			}
			buf.WriteString(f.name)
			buf.WriteString("_bucket{")
			if s.labels != "" {
				buf.WriteString(s.labels)
				buf.WriteByte(',')
			}
			fmt.Fprintf(buf, "le=%q} %d\n", le, cum)
		}
		writeLine(buf, f.name+"_sum", s.labels, formatFloat(float64(s.h.sum.Load())/1e9))
		writeLine(buf, f.name+"_count", s.labels, strconv.FormatInt(cum, 10))
	case s.fn != nil:
		writeLine(buf, f.name, s.labels, formatFloat(s.fn()))
	case s.c != nil:
		writeLine(buf, f.name, s.labels, strconv.FormatInt(s.c.Value(), 10))
	default:
		writeLine(buf, f.name, s.labels, strconv.FormatInt(s.g.Value(), 10))
	}
}

func writeLine(buf *bytes.Buffer, name, labels, value string) {
	buf.WriteString(name)
	if labels != "" {
		buf.WriteByte('{')
		buf.WriteString(labels)
		buf.WriteByte('}')
	}
	buf.WriteByte(' ')
	buf.WriteString(value)
	buf.WriteByte('\n')
}

// formatFloat renders values the way Prometheus clients do: integers
// without a decimal point, everything else in shortest round-trip form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ContentType is the Prometheus text exposition content type.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// ServeHTTP makes the registry mountable as GET /metrics.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		http.Error(w, "rendering metrics: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", ContentType)
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}
