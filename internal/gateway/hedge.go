package gateway

import (
	"slices"
	"sync"
	"time"
)

// latencyWindow keeps the last windowSize successful upstream latencies
// and answers their p99, which is what the hedge delay derives from: a
// second request is worth sending only once the first has outlived the
// fleet's own tail. The quantile is cached and recomputed lazily every
// recomputeEvery inserts — a hedge delay does not need sample-exact
// precision, it needs to be cheap on the request path.
type latencyWindow struct {
	mu      sync.Mutex
	samples []time.Duration // ring buffer
	next    int
	dirty   int
	cached  time.Duration
}

const (
	windowSize     = 512
	recomputeEvery = 64
	// minHedgeSamples gates adaptive hedging: below it the window has no
	// meaningful tail and the configured fallback delay is used.
	minHedgeSamples = 20
)

func newLatencyWindow() *latencyWindow {
	return &latencyWindow{samples: make([]time.Duration, 0, windowSize)}
}

// Observe records one successful request's latency.
func (w *latencyWindow) Observe(d time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.samples) < windowSize {
		w.samples = append(w.samples, d)
	} else {
		w.samples[w.next] = d
		w.next = (w.next + 1) % windowSize
	}
	w.dirty++
}

// P99 returns the window's 99th-percentile latency, or 0 while the
// window holds fewer than minHedgeSamples samples.
func (w *latencyWindow) P99() time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.samples) < minHedgeSamples {
		return 0
	}
	if w.dirty >= recomputeEvery || w.cached == 0 {
		sorted := slices.Clone(w.samples)
		slices.Sort(sorted)
		w.cached = sorted[(len(sorted)-1)*99/100]
		w.dirty = 0
	}
	return w.cached
}
