package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// calRefMs is the reference kernel's time on the machine the bounds were
// set on. A slice whose kernel samples average c ms ran on a host
// c/calRefMs times slower, so its times are scaled by calRefMs/c (rates
// by the inverse). The constant only fixes the unit of "normalised
// seconds"; comparisons between commits do not depend on it.
const calRefMs = 0.30

// calEvery is the wall-clock schedule of the reference kernel: at least
// 20 samples a second, taken only between requests.
const calEvery = 25 * time.Millisecond

// sliceFor is how long one normalisation slice of a request loop lasts.
const sliceFor = time.Second

var calData = func() []float64 {
	d := make([]float64, 256<<10/8)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range d {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		d[i] = float64(x>>11) / (1 << 53)
	}
	return d
}()

var calSink float64

// kernel is the fixed reference work: 8 passes of a branchy multiply-add
// over a 256 KiB array. It allocates nothing and touches no shared
// state, so its duration moves only with the speed of the host.
func kernel() time.Duration {
	t0 := time.Now()
	acc := 0.0
	for pass := 0; pass < 8; pass++ {
		for _, v := range calData {
			if v > 0.0625 {
				acc += v * 1.0000001
			} else {
				acc -= v * 0.9999999
			}
		}
	}
	calSink = acc
	return time.Since(t0)
}

// usage is a reading of the three process-wide counters a slice is
// charged for.
type usage struct {
	at     time.Time
	cpu    time.Duration
	allocs uint64
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

// heapAllocs is the number of objects the process has allocated so far.
func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return usage{
		at:     time.Now(),
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs: heapAllocs(),
	}
}

func (u usage) sub(v usage) usage {
	return usage{cpu: u.cpu - v.cpu, allocs: u.allocs - v.allocs}
}

// slice is one stretch of measured work with its own speed reading: a
// second of a request loop, or one retrain cycle.
type slice struct {
	wall, cpu time.Duration // harness-only work excluded
	allocs    uint64
	preds     int
	latMs     []float64 // raw, one per HTTP request
	calSumMs  float64
	calN      int
}

// factor scales this slice's times to the reference host.
func (s *slice) factor() float64 { return calRefMs / (s.calSumMs / float64(s.calN)) }

// meter charges work to slices. Between begin and end everything the
// process does is counted except what runs inside calibrate and exclude:
// the reference kernel and the harness's own oracle work.
type meter struct {
	slices  []slice
	cur     slice
	start   usage
	skipped struct {
		wall, cpu time.Duration
		allocs    uint64
	}
	lastCal time.Time
}

func (m *meter) begin() {
	m.cur = slice{}
	m.calibrate()
	m.skipped.wall, m.skipped.cpu, m.skipped.allocs = 0, 0, 0
	m.start = readUsage()
}

// elapsed is the counted wall time of the open slice.
func (m *meter) elapsed() time.Duration { return time.Since(m.start.at) - m.skipped.wall }

func (m *meter) exclude(f func()) {
	u0 := readUsage()
	f()
	u1 := readUsage()
	d := u1.sub(u0)
	m.skipped.wall += u1.at.Sub(u0.at)
	m.skipped.cpu += d.cpu
	m.skipped.allocs += d.allocs
}

func (m *meter) calibrate() {
	m.exclude(func() {
		m.cur.calSumMs += ms(kernel())
		m.cur.calN++
	})
	m.lastCal = time.Now()
}

// tick runs the reference kernel when it is due. Callers invoke it only
// while no request is in flight.
func (m *meter) tick() {
	if time.Since(m.lastCal) >= calEvery {
		m.calibrate()
	}
}

func (m *meter) request(lat time.Duration, preds int) {
	m.cur.latMs = append(m.cur.latMs, ms(lat))
	m.cur.preds += preds
}

func (m *meter) end() {
	m.calibrate()
	u := readUsage()
	d := u.sub(m.start)
	m.cur.wall = u.at.Sub(m.start.at) - m.skipped.wall
	m.cur.cpu = d.cpu - m.skipped.cpu
	m.cur.allocs = d.allocs - m.skipped.allocs
	m.slices = append(m.slices, m.cur)
}

// totals of the counts, which are pooled over slices.
func (m *meter) totals() (preds int, allocs uint64) {
	for i := range m.slices {
		preds += m.slices[i].preds
		allocs += m.slices[i].allocs
	}
	return
}

// timing is the timing metrics of a phase, raw or normalised. p99 is 0
// when the phase has fewer than the 1000 requests that support it.
type timing struct {
	pps, p50, p95, p99, cpuMs float64
}

// timings reduces the slices. Throughput, median latency and CPU per
// prediction are the median of the per-slice values, so a disturbed
// slice cannot move them; the tail percentiles need more samples than a
// slice of long requests holds, so they are taken over all requests,
// each scaled by its own slice's factor.
func (m *meter) timings(normalised bool) timing {
	var pps, p50, cpu, all []float64
	for i := range m.slices {
		s := &m.slices[i]
		if s.preds == 0 {
			continue
		}
		f := 1.0
		if normalised {
			f = s.factor()
		}
		pps = append(pps, float64(s.preds)/(s.wall.Seconds()*f))
		cpu = append(cpu, ms(s.cpu)*f/float64(s.preds))
		lat := make([]float64, len(s.latMs))
		for k, l := range s.latMs {
			lat[k] = l * f
		}
		slices.Sort(lat)
		p50 = append(p50, quantile(lat, 0.5))
		all = append(all, lat...)
	}
	slices.Sort(all)
	t := timing{pps: median(pps), p50: median(p50), cpuMs: median(cpu), p95: quantile(all, 0.95)}
	if len(all) >= 1000 {
		t.p99 = quantile(all, 0.99)
	}
	return t
}

func (m *meter) calMeanMs() (mean float64, n int) {
	var sum float64
	for i := range m.slices {
		sum += m.slices[i].calSumMs
		n += m.slices[i].calN
	}
	return sum / float64(n), n
}

// quantile of a sorted sample, by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return quantile(s, 0.5)
}

// client is the one closed-loop caller: one goroutine, one keep-alive
// connection, the next request only after the previous answer is read.
type client struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newClient() *client {
	return &client{hc: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   30 * time.Second,
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends one request and reads the whole answer; the returned bytes
// are valid until the next call.
func (c *client) post(url string, body []byte) (status int, resp []byte, lat time.Duration, err error) {
	t0 := time.Now()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	res, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(res.Body)
	if cerr := res.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, nil, 0, fmt.Errorf("reading answer: %w", err)
	}
	return res.StatusCode, c.buf.Bytes(), time.Since(t0), nil
}
