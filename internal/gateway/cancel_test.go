package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"scouts/internal/faults"
)

// Cancellation: every gateway function that carries a context and can
// block must give up when the context does (DESIGN.md §9.2 lists each
// with its test). The hedge wait is TestHedgeClientGoneMidRace's.

// within runs f on a goroutine and fails the test unless it returns in d.
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not return within %v", what, d)
	}
}

// hung is an upstream that answers nothing until its request is cancelled;
// entered is closed when the first request arrives.
func hung(entered chan struct{}) script {
	var once atomic.Bool
	return func(r *http.Request) (*http.Response, error) {
		if once.CompareAndSwap(false, true) {
			close(entered)
		}
		<-r.Context().Done()
		return nil, r.Context().Err()
	}
}

// TestRunProberStopsOnCancel: the prober returns once its context ends —
// between probes, and in the middle of one to a replica that never
// answers. The cut-off probe is no verdict: the breaker does not move.
func TestRunProberStopsOnCancel(t *testing.T) {
	g, _, _ := raceFixture(t, Config{ProbeInterval: time.Millisecond}, func(r *http.Request) (*http.Response, error) {
		return answer(r, 200, `{"status":"ok"}`)
	}, "a")
	ctx, cancel := context.WithCancel(context.Background())
	within(t, 2*time.Second, "RunProber between probes", func() {
		go func() {
			for g.tel.replica("a").probes.Value() < 3 {
				time.Sleep(time.Millisecond)
			}
			cancel()
		}()
		g.RunProber(ctx)
	})

	entered := make(chan struct{})
	g, _, _ = raceFixture(t, Config{
		ProbeInterval: time.Millisecond,
		Breaker:       faults.ReqBreakerParams{Trip: 1, Cooldown: time.Minute},
	}, hung(entered), "a")
	ctx, cancel = context.WithCancel(context.Background())
	within(t, 2*time.Second, "RunProber mid-probe", func() {
		go func() {
			<-entered
			cancel()
		}()
		g.RunProber(ctx)
	})
	if br := g.replicas["a"].breaker; br.State() != faults.StateClosed || br.Trips() != 0 {
		t.Fatalf("a cancelled probe moved the breaker: %s, %d trips", br.State(), br.Trips())
	}
	if n := g.tel.replica("a").probes.Value(); n != 0 {
		t.Fatalf("a cancelled probe was counted: %d probes", n)
	}
}

// TestClientGoneMidBackoffIs499: a client that leaves while forward sleeps
// between attempts gets its 499 at once, not after the backoff, and no
// second attempt is sent.
func TestClientGoneMidBackoffIs499(t *testing.T) {
	var attempts atomic.Int64
	g, h, title := raceFixture(t, Config{
		MaxAttempts: 3,
		RetryBase:   time.Minute, RetryMax: time.Minute,
		HedgeAfter: -1,
	}, func(r *http.Request) (*http.Response, error) {
		attempts.Add(1)
		return nil, errDrop
	}, "primary", "second")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		// The first attempt is on the books: forward is in, or about to
		// enter, its backoff.
		for outcomes(g, "primary", "error") == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		cancel()
	}()
	w := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(predictBody(title))).WithContext(ctx)
	within(t, 2*time.Second, "a predict whose client left mid-backoff", func() { h.ServeHTTP(w, req) })
	if w.Code != 499 || !strings.Contains(w.Body.String(), "client went away") {
		t.Fatalf("answered %d: %s; want 499", w.Code, w.Body.String())
	}
	if n := attempts.Load(); n != 1 {
		t.Fatalf("%d attempts sent, want 1", n)
	}
}

// TestReloadFanOutToHungReplica: /v1/reload waits for every replica, so a
// replica that never answers must not hold it. The client leaving ends
// the wait, voided — the breaker does not move — and without a client
// deadline the per-try timeout ends it, as a failure.
func TestReloadFanOutToHungReplica(t *testing.T) {
	reload := func(h http.Handler, ctx context.Context) (int, []reloadResult) {
		t.Helper()
		w := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/reload", nil).WithContext(ctx)
		within(t, 2*time.Second, "a reload fanned out to a hung replica", func() { h.ServeHTTP(w, req) })
		var rb struct {
			Results []reloadResult `json:"results"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &rb); err != nil {
			t.Fatalf("reload answered %d: %s", w.Code, w.Body.String())
		}
		return w.Code, rb.Results
	}
	entered := make(chan struct{})
	stuck := hung(entered)
	s := func(r *http.Request) (*http.Response, error) {
		if r.URL.Host == "hung" {
			return stuck(r)
		}
		return answer(r, 200, `{"status":"ok"}`)
	}
	breaker := faults.ReqBreakerParams{Trip: 1, Cooldown: time.Minute}

	g, h, _ := raceFixture(t, Config{Breaker: breaker}, s, "live", "hung")
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-entered
		cancel()
	}()
	code, rows := reload(h, ctx)
	want := []reloadResult{{Replica: "live", OK: true, Status: 200}, {Replica: "hung", Error: "cancelled"}}
	if code != http.StatusBadGateway || len(rows) != 2 || rows[0] != want[0] || rows[1] != want[1] {
		t.Fatalf("client gone: answered %d %+v, want 502 %+v", code, rows, want)
	}
	settled(t, g)
	if br := g.replicas["hung"].breaker; br.State() != faults.StateClosed {
		t.Fatalf("a cancelled reload moved the breaker: %s", br.State())
	}

	entered = make(chan struct{})
	stuck = hung(entered)
	g, h, _ = raceFixture(t, Config{Breaker: breaker, PerTryTimeout: 20 * time.Millisecond}, s, "live", "hung")
	code, rows = reload(h, context.Background())
	if code != http.StatusBadGateway || len(rows) != 2 || !rows[0].OK || rows[1].OK ||
		!strings.Contains(rows[1].Error, context.DeadlineExceeded.Error()) {
		t.Fatalf("per-try timeout: answered %d %+v, want 502 with the hung row timed out", code, rows)
	}
	settled(t, g)
	if br := g.replicas["hung"].breaker; br.State() != faults.StateOpen {
		t.Fatalf("a timed-out reload is a failure; breaker is %s", br.State())
	}
}
