package serving

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scouts/internal/chaos"
	"scouts/internal/core"
	"scouts/internal/faults"
	"scouts/internal/incident"
	"scouts/internal/monitoring"
)

// chaosSource darkens half the trained Scout's datasets forever and wraps
// the result in circuit breakers, returning the source and the darkened
// names (sorted order keeps the choice deterministic).
func chaosSource(t *testing.T, seed int64) (monitoring.DataSource, []string) {
	t.Helper()
	gen, _, cfg := testEnv(t)
	var names []string
	for _, d := range gen.Telemetry().Datasets() {
		if cfg.UsesDataset(d.Name) {
			names = append(names, d.Name)
		}
	}
	sort.Strings(names)
	dark := names[:len(names)/2]
	var sched chaos.Schedule
	for _, n := range dark {
		sched.Blackouts = append(sched.Blackouts, chaos.Blackout{Dataset: n, Start: 0, End: chaos.Forever})
	}
	src := chaos.New(gen.Telemetry(), sched, seed)
	return faults.NewBreaker(src, faults.BreakerParams{Trip: 8, Cooldown: 2}), dark
}

// The chaos tests share one clean-trained snapshot (training is the
// expensive part and every test serves the same model).
var (
	onceSnap sync.Once
	snapData []byte
	snapErr  error
)

func chaosSnapshot(t *testing.T) []byte {
	t.Helper()
	gen, log, cfg := testEnv(t)
	onceSnap.Do(func() {
		scout, err := core.Train(core.TrainOptions{
			Config: cfg, Topology: gen.Topology(), Source: gen.Telemetry(),
			Incidents: log.Incidents[:300], Seed: 1,
		})
		if err != nil {
			snapErr = err
			return
		}
		snapData, snapErr = scout.SnapshotPack()
	})
	if snapErr != nil {
		t.Fatal(snapErr)
	}
	return snapData
}

// chaosServe publishes the shared clean-trained model and serves it
// against the chaos-wrapped source with the full hardening chain on.
func chaosServe(t *testing.T, src monitoring.DataSource) *Server {
	t.Helper()
	gen, _, _ := testEnv(t)
	store := NewStore()
	store.Put("PhyNet", chaosSnapshot(t))
	srv := NewServer(gen.Topology(), src, store, nil)
	srv.MaxInFlight = 4
	srv.RequestTimeout = 30 * time.Second
	srv.Degradation = core.DegradationPolicy{MinCoverage: 0.25}
	if err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestChaosServingUnderBlackout is the fault-injection integration test:
// a Scout serving through a seeded 50% dataset blackout behind circuit
// breakers, hammered concurrently (run under -race). The server must stay
// available — every response is 200 (possibly a fallback verdict) or a
// deliberate 429 shed; never a 5xx, never a dropped connection — and
// /v1/health must own up to the degradation.
func TestChaosServingUnderBlackout(t *testing.T) {
	src, dark := chaosSource(t, 99)
	srv := chaosServe(t, src)
	_, log, _ := testEnv(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ins := log.Incidents[300:]
	const workers = 8
	codes := make([]map[int]int, workers)
	sawHealth := make([]bool, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			codes[w] = map[int]int{}
			for i := w; i < len(ins); i += workers {
				in := ins[i]
				body, _ := json.Marshal(PredictRequest{
					Title: in.Title, Body: in.Body, Components: in.Components, Time: in.CreatedAt,
				})
				resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("request failed outright: %v", err)
					return
				}
				codes[w][resp.StatusCode]++
				if resp.StatusCode == http.StatusOK {
					var pr PredictResponse
					if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
						t.Errorf("bad response body: %v", err)
					}
					if pr.DataHealth != nil && len(pr.DataHealth.DatasetsDown) > 0 {
						sawHealth[w] = true
					}
				} else {
					io.Copy(io.Discard, resp.Body)
				}
				resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()

	total := map[int]int{}
	anyHealth := false
	for w := range codes {
		for c, n := range codes[w] {
			total[c] += n
		}
		anyHealth = anyHealth || sawHealth[w]
	}
	for c := range total {
		if c != http.StatusOK && c != http.StatusTooManyRequests {
			t.Fatalf("unexpected status %d under chaos (breakdown %v)", c, total)
		}
	}
	if total[http.StatusOK] == 0 {
		t.Fatalf("no request succeeded: %v", total)
	}
	if !anyHealth {
		t.Fatal("no prediction admitted to the blackout in its data_health")
	}

	// The health endpoint must report degraded with the dark datasets and
	// breaker states on display.
	resp, err := http.Get(ts.URL + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Status     string                     `json:"status"`
		DataHealth []monitoring.DatasetHealth `json:"data_health"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" {
		t.Fatalf("health status = %q, want degraded", health.Status)
	}
	down := map[string]bool{}
	for _, h := range health.DataHealth {
		if h.Breaker == "" {
			t.Fatalf("breaker state missing from %+v", h)
		}
		if !h.Available {
			down[h.Dataset] = true
		}
	}
	for _, n := range dark {
		if !down[n] {
			t.Fatalf("health hides the %s blackout: %+v", n, health.DataHealth)
		}
	}
}

// TestChaosServingDeterministic reruns an identical request sequence
// against two identically-seeded chaos servers and demands bit-identical
// response bodies: every injected fault is a pure function of (schedule,
// seed, query window), so a chaos run is replayable evidence, not noise.
func TestChaosServingDeterministic(t *testing.T) {
	_, log, _ := testEnv(t)
	ins := log.Incidents[300:340]
	run := func() []string {
		src, _ := chaosSource(t, 99)
		srv := chaosServe(t, src)
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		var out []string
		for _, in := range ins {
			body, _ := json.Marshal(PredictRequest{
				Title: in.Title, Body: in.Body, Components: in.Components, Time: in.CreatedAt,
			})
			resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			b, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, resp.Status+" "+string(b))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d diverged between identical seeded runs:\n%s\nvs\n%s", i, a[i], b[i])
		}
	}
}

// TestShedding verifies the 429 path deterministically: a server with
// MaxInFlight saturated by parked requests sheds the next one immediately
// with a Retry-After hint.
func TestShedding(t *testing.T) {
	srv, _, _ := trainAndServe(t)
	srv.MaxInFlight = 1
	srv.inflight = nil // re-arm in case Handler was built before

	release := make(chan struct{})
	parked := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/park", func(w http.ResponseWriter, _ *http.Request) {
		close(parked)
		<-release
	})
	h := srv.web.Recover(srv.withShedding(mux))
	srv.inflight = make(chan struct{}, srv.MaxInFlight)
	ts := httptest.NewServer(h)
	defer ts.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Get(ts.URL + "/park")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-parked // the one slot is now held

	resp, err := http.Get(ts.URL + "/park")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server answered %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
	close(release)
	<-done
}

// TestPanicRecovery feeds the recovery middleware a handler that panics
// and expects a 500 — not a crashed test binary.
func TestPanicRecovery(t *testing.T) {
	srv := NewServer(nil, nil, NewStore(), nil)
	mux := http.NewServeMux()
	mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) { panic("scoring bug") })
	ts := httptest.NewServer(srv.web.Recover(mux))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panic answered %d, want 500", resp.StatusCode)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error == "" {
		t.Fatal("500 must carry an error body")
	}
}

// TestRequestDeadline pins the 503 deadline path with a handler slower
// than the budget: JSON body, application/json Content-Type (the
// http.TimeoutHandler this replaced content-sniffed its body to
// text/plain), and the deadline propagating into the handler's context.
func TestRequestDeadline(t *testing.T) {
	srv := NewServer(nil, nil, NewStore(), nil)
	srv.RequestTimeout = 20 * time.Millisecond
	mux := http.NewServeMux()
	release := make(chan struct{})
	defer close(release)
	handlerSawDeadline := make(chan struct{})
	mux.HandleFunc("/slow", func(_ http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done(): // the deadline propagates into the handler
			close(handlerSawDeadline)
		case <-release:
		}
	})
	h := srv.web.Recover(srv.withDeadline(mux))
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/slow")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overrun answered %d, want 503", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("timeout response Content-Type = %q, want application/json", ct)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("timeout body is not JSON: %v", err)
	}
	if eb.Error == "" {
		t.Fatal("timeout response must carry an error body")
	}
	select {
	case <-handlerSawDeadline:
	case <-time.After(2 * time.Second):
		t.Fatal("handler context never expired after the 503 was sent")
	}
	if got := srv.tel.timeouts.Value(); got != 1 {
		t.Fatalf("timeout counter = %d, want 1", got)
	}
}

// TestDeadlinePanicPropagates pins that a panic under the deadline guard
// unwinds through it into the recovery middleware and still answers a
// JSON 500.
func TestDeadlinePanicPropagates(t *testing.T) {
	srv := NewServer(nil, nil, NewStore(), nil)
	srv.RequestTimeout = time.Second
	mux := http.NewServeMux()
	mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) { panic("kaboom") })
	ts := httptest.NewServer(srv.web.Recover(srv.withDeadline(mux)))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panic under deadline answered %d, want 500", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
}

// deadlineFixture serves the hardening chain Handler() builds — Recover
// over shedding (when maxInFlight > 0) over the deadline guard — in front
// of a test mux, with the server's log captured and net/http's own error
// log silenced (a refused late write is reported there by design).
func deadlineFixture(t *testing.T, timeout time.Duration, maxInFlight int, mux http.Handler) (*Server, *httptest.Server, *lockedBuffer) {
	t.Helper()
	logs := &lockedBuffer{}
	srv := NewServer(nil, nil, NewStore(), log.New(logs, "", 0))
	srv.RequestTimeout = timeout
	h := srv.withDeadline(mux)
	if maxInFlight > 0 {
		srv.MaxInFlight = maxInFlight
		srv.inflight = make(chan struct{}, maxInFlight)
		h = srv.withShedding(h)
	}
	ts := httptest.NewUnstartedServer(srv.web.Recover(h))
	ts.Config.ErrorLog = log.New(io.Discard, "", 0)
	ts.Start()
	t.Cleanup(ts.Close)
	return srv, ts, logs
}

type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// wireClient speaks HTTP/1.1 over one raw connection, so a test sees every
// byte the server puts on it: a stray write after a response would corrupt
// the next exchange's parse.
type wireClient struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
}

func dialWire(t *testing.T, ts *httptest.Server) *wireClient {
	t.Helper()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &wireClient{t: t, conn: conn, br: bufio.NewReader(conn)}
}

func (c *wireClient) get(path string) (int, http.Header, string) {
	c.t.Helper()
	_ = c.conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.WriteString(c.conn, "GET "+path+" HTTP/1.1\r\nHost: test\r\n\r\n"); err != nil {
		c.t.Fatal(err)
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.t.Fatalf("GET %s: reading the response: %v", path, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		c.t.Fatalf("GET %s: reading the body: %v", path, err)
	}
	return resp.StatusCode, resp.Header, string(body)
}

const deadline503 = `{"error":"request deadline exceeded"}` + "\n"

// TestDeadlineAnswersWhileHandlerIsBlocked: the watchdog, not the
// handler's return, answers an overrun — the 503 is on the wire while the
// handler is still parked — and whatever the handler writes afterwards
// reaches nothing: the connection's next exchange parses clean.
func TestDeadlineAnswersWhileHandlerIsBlocked(t *testing.T) {
	release := make(chan struct{})
	returned := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, _ *http.Request) {
		defer close(returned)
		<-release
		w.Header().Set("X-Late", "1")
		w.WriteHeader(http.StatusTeapot)
		_, _ = io.WriteString(w, "late bytes nobody asked for")
	})
	mux.HandleFunc("/fast", func(w http.ResponseWriter, _ *http.Request) { _, _ = io.WriteString(w, "fast") })
	srv, ts, _ := deadlineFixture(t, 20*time.Millisecond, 0, mux)

	c := dialWire(t, ts)
	code, hdr, body := c.get("/slow") // returns while the handler is parked: release is still open
	if code != http.StatusServiceUnavailable || body != deadline503 || hdr.Get("Content-Type") != "application/json" {
		t.Fatalf("overrun answered %d %q (%s), want the JSON 503", code, body, hdr.Get("Content-Type"))
	}
	select {
	case <-returned:
		t.Fatal("the handler returned before it was released")
	default:
	}
	close(release)
	<-returned
	if code, hdr, body = c.get("/fast"); code != http.StatusOK || body != "fast" || hdr.Get("X-Late") != "" {
		t.Fatalf("exchange after the overrun: %d %q X-Late=%q; the late write leaked", code, body, hdr.Get("X-Late"))
	}
	if n := c.br.Buffered(); n != 0 {
		t.Fatalf("%d stray bytes on the connection", n)
	}
	if got := srv.tel.timeouts.Value(); got != 1 {
		t.Fatalf("timeout counter = %d, want 1", got)
	}
}

// TestDeadlinePanicAfterOverrun: a handler that panics after the watchdog
// answered. The client keeps its 503, the panic is counted and logged by
// Recover, and Recover's 500 does not reach the wire: net/http refuses a
// write past the 503's Content-Length and then drops the connection, its
// byte accounting being off.
func TestDeadlinePanicAfterOverrun(t *testing.T) {
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/boom", func(_ http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
		<-release
		panic("late kaboom")
	})
	srv, ts, logs := deadlineFixture(t, 20*time.Millisecond, 0, mux)

	c := dialWire(t, ts)
	if code, _, body := c.get("/boom"); code != http.StatusServiceUnavailable || body != deadline503 {
		t.Fatalf("overrun answered %d %q, want the JSON 503", code, body)
	}
	close(release)
	// The server closes the connection once the panic has unwound, so
	// reading to its end is also the wait for Recover.
	_ = c.conn.SetDeadline(time.Now().Add(5 * time.Second))
	if after, err := io.ReadAll(c.br); len(after) != 0 || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("after the 503: %d bytes, err %v; want a closed connection and nothing on it", len(after), err)
	}
	var scrape bytes.Buffer
	if err := srv.Metrics().WritePrometheus(&scrape); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(scrape.String(), "scout_http_panics_recovered_total 1\n") {
		t.Fatalf("panic not counted:\n%s", grepMetric(scrape.String(), "panics_recovered"))
	}
	if !strings.Contains(logs.String(), "late kaboom") {
		t.Fatalf("panic not logged: %q", logs.String())
	}
}

// TestDeadlineOverrunHoldsShedSlot pins the one behaviour the inline guard
// changed: a request that overran its deadline keeps its MaxInFlight slot
// until its handler returns, because the handler is still burning the
// capacity the slot stands for.
func TestDeadlineOverrunHoldsShedSlot(t *testing.T) {
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/park", func(http.ResponseWriter, *http.Request) { <-release })
	mux.HandleFunc("/fast", func(w http.ResponseWriter, _ *http.Request) { _, _ = io.WriteString(w, "fast") })
	srv, ts, _ := deadlineFixture(t, 20*time.Millisecond, 1, mux)

	if code, _, _ := dialWire(t, ts).get("/park"); code != http.StatusServiceUnavailable {
		t.Fatalf("overrun answered %d, want 503", code)
	}
	if code, hdr, _ := dialWire(t, ts).get("/fast"); code != http.StatusTooManyRequests || hdr.Get("Retry-After") == "" {
		t.Fatalf("request beside a parked overrun answered %d, want 429 with Retry-After", code)
	}
	close(release)
	for deadline := time.Now().Add(2 * time.Second); len(srv.inflight) != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the slot was never handed back after the handler returned")
		}
	}
	if code, _, body := dialWire(t, ts).get("/fast"); code != http.StatusOK || body != "fast" {
		t.Fatalf("after the handler returned: %d %q, want 200", code, body)
	}
}

// TestDeadlineHonoursParentDeadline: a request whose context already
// carries a deadline earlier than RequestTimeout is answered the JSON 503
// at that earlier deadline, while its handler is still parked, and is
// counted once.
func TestDeadlineHonoursParentDeadline(t *testing.T) {
	const parentDeadline = 30 * time.Millisecond
	release := make(chan struct{})
	returned := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/park", func(http.ResponseWriter, *http.Request) {
		defer close(returned)
		<-release
	})
	srv := NewServer(nil, nil, NewStore(), nil)
	srv.RequestTimeout = time.Minute
	guarded := srv.web.Recover(srv.withDeadline(mux))
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), parentDeadline)
		defer cancel()
		guarded.ServeHTTP(w, r.WithContext(ctx))
	}))
	defer ts.Close()
	defer close(release)

	start := time.Now()
	code, hdr, body := dialWire(t, ts).get("/park")
	took := time.Since(start)
	if code != http.StatusServiceUnavailable || body != deadline503 || hdr.Get("Content-Type") != "application/json" {
		t.Fatalf("answered %d %q (%s), want the JSON 503", code, body, hdr.Get("Content-Type"))
	}
	if took < parentDeadline {
		t.Fatalf("answered after %v, before the request's own deadline of %v", took, parentDeadline)
	}
	select {
	case <-returned:
		t.Fatal("the handler returned before it was released: the 503 was not the watchdog's")
	default:
	}
	release <- struct{}{}
	<-returned
	ts.Close() // waits for the handler chain to unwind
	if got := srv.tel.timeouts.Value(); got != 1 {
		t.Fatalf("timeout counter = %d, want 1", got)
	}
}

// TestDeadlineIgnoresClientHangup: net/http cancels the request context
// when the client disconnects; that is not an overrun — nothing is counted
// and no 503 is written to the dead connection.
func TestDeadlineIgnoresClientHangup(t *testing.T) {
	srv := NewServer(nil, nil, NewStore(), nil)
	srv.RequestTimeout = 30 * time.Millisecond
	release := make(chan struct{})
	h := srv.web.Recover(srv.withDeadline(http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
		<-release
	})))

	ctx, hangUp := context.WithCancel(context.Background())
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil).WithContext(ctx))
	}()
	hangUp()
	time.Sleep(10 * time.Millisecond) // room for a watchdog that wrongly answers a cancellation
	close(release)
	<-done
	if got := srv.tel.timeouts.Value(); got != 0 {
		t.Fatalf("a client hang-up was counted as %d timeout(s)", got)
	}
	if rec.Code == http.StatusServiceUnavailable {
		t.Fatalf("a 503 was written to a client that hung up: %s", rec.Body.String())
	}

	release = make(chan struct{})
	defer close(release)
	rec = httptest.NewRecorder()
	go h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	for deadline := time.Now().Add(2 * time.Second); srv.tel.timeouts.Value() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("an overrun was counted %d times, want 1", srv.tel.timeouts.Value())
		}
	}
}

// TestDeadlineHandlerThatGivesUpIsA503: the batch scorer returns without
// writing once its context has expired, counting on the guard to have
// answered. The handler waking on the deadline races the watchdog waking
// on it; whichever gets to the guard first, the answer is the 503 and it
// is counted once — never the empty buffer as a 200.
func TestDeadlineHandlerThatGivesUpIsA503(t *testing.T) {
	const rounds = 300
	srv := NewServer(nil, nil, NewStore(), nil)
	srv.RequestTimeout = time.Millisecond
	h := srv.web.Recover(srv.withDeadline(http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	})))
	for i := 0; i < rounds; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
		if rec.Code != http.StatusServiceUnavailable || rec.Body.String() != deadline503 {
			t.Fatalf("round %d answered %d %q, want the JSON 503", i, rec.Code, rec.Body.String())
		}
	}
	if got := srv.tel.timeouts.Value(); got != rounds {
		t.Fatalf("timeout counter = %d over %d overruns", got, rounds)
	}
}

// TestDeadlineRaceServesExactlyOneAnswer races 10⁴ handlers against a
// deadline set at their own duration. Whoever wins, a response is one
// complete 200 carrying its own request's header and bytes or one complete
// 503 carrying neither, and a recycled guard brings nothing along from
// the request before it.
func TestDeadlineRaceServesExactlyOneAnswer(t *testing.T) {
	const requests, workers, timeout = 10000, 16, 2 * time.Millisecond
	answer := func(id int) string { return strings.Repeat(strconv.Itoa(id)+";", 1+id%40) }
	mux := http.NewServeMux()
	mux.HandleFunc("/echo", func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.Atoi(r.URL.Query().Get("id"))
		// Half the handlers finish within 100µs of the deadline, either
		// side of it; the rest surely beat it or surely miss it, so both
		// outcomes occur however loaded the machine is.
		time.Sleep([]time.Duration{0, timeout - 100*time.Microsecond, timeout + 100*time.Microsecond, 2 * timeout}[id%4])
		w.Header().Set("X-Echo", strconv.Itoa(id))
		if id%2 == 0 {
			w.Header().Set("X-Even", "1") // must never show on an odd answer
		}
		_, _ = io.WriteString(w, answer(id))
	})
	_, ts, _ := deadlineFixture(t, timeout, 0, mux)
	client := ts.Client()

	var next, served, timedOut atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				id := int(next.Add(1))
				if id > requests {
					return
				}
				resp, err := client.Get(ts.URL + "/echo?id=" + strconv.Itoa(id))
				if err != nil {
					t.Errorf("request %d: %v", id, err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Errorf("request %d: reading the body: %v", id, err)
					return
				}
				echo, even := resp.Header.Get("X-Echo"), resp.Header.Get("X-Even")
				switch resp.StatusCode {
				case http.StatusOK:
					served.Add(1)
					if string(body) != answer(id) || echo != strconv.Itoa(id) || (even != "") != (id%2 == 0) {
						t.Errorf("request %d: 200 with X-Echo=%q X-Even=%q body %q", id, echo, even, body)
					}
				case http.StatusServiceUnavailable:
					timedOut.Add(1)
					if string(body) != deadline503 || echo != "" || even != "" {
						t.Errorf("request %d: 503 with X-Echo=%q X-Even=%q body %q", id, echo, even, body)
					}
				default:
					t.Errorf("request %d: status %d", id, resp.StatusCode)
				}
			}
		}()
	}
	wg.Wait()
	t.Logf("%d served, %d timed out", served.Load(), timedOut.Load())
	if served.Load() == 0 || timedOut.Load() == 0 {
		t.Fatalf("the race was one-sided (%d served, %d timed out): nothing was tested", served.Load(), timedOut.Load())
	}
}

// TestNoGoroutineUnderServerHandler fails if a layer of Handler() moves
// the request onto a goroutine of its own again: the mux's instrumentation
// reads the server's clock on whatever goroutine runs the handler, and the
// frame of this test's ServeHTTP call must be on that stack.
func TestNoGoroutineUnderServerHandler(t *testing.T) {
	srv, _, _ := trainAndServe(t)
	srv.MaxInFlight, srv.RequestTimeout = 4, time.Minute
	var stack string
	srv.Clock = func() time.Time {
		stack = callerNames()
		return time.Now()
	}
	body, _ := json.Marshal(heldOutRequests(t)[0])
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/v1/predict", bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	// The test's own frame, not the clock closure's ("….func1").
	if !strings.Contains(stack, ".TestNoGoroutineUnderServerHandler\n") {
		t.Fatalf("the handler ran on a goroutine other than its caller's; its stack:\n%s", stack)
	}
}

// callerNames renders the calling goroutine's stack as function names.
func callerNames() string {
	pcs := make([]uintptr, 64)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
	var b strings.Builder
	for {
		f, more := frames.Next()
		b.WriteString(f.Function + "\n")
		if !more {
			return b.String()
		}
	}
}

// TestDegradationOverHTTP drives a full-blackout server with a coverage
// floor: answers must be fallback verdicts that explain themselves.
func TestDegradationOverHTTP(t *testing.T) {
	gen, logTrace, cfg := testEnv(t)
	var sched chaos.Schedule
	for _, d := range gen.Telemetry().Datasets() {
		if cfg.UsesDataset(d.Name) {
			sched.Blackouts = append(sched.Blackouts, chaos.Blackout{Dataset: d.Name, Start: 0, End: chaos.Forever})
		}
	}
	srv := chaosServe(t, chaos.New(gen.Telemetry(), sched, 1))
	srv.Degradation = core.DegradationPolicy{MinCoverage: 0.5}
	if err := srv.Reload(); err != nil { // re-apply the tightened policy
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var in *incident.Incident
	for _, cand := range logTrace.Incidents[300:] {
		if p := srv.current.Load().scout.PredictIncident(cand); p.Model != "exclude-rule" && len(p.Components) > 0 {
			in = cand
			break
		}
	}
	if in == nil {
		t.Fatal("no suitable incident")
	}
	body, _ := json.Marshal(PredictRequest{Title: in.Title, Body: in.Body, Components: in.Components, Time: in.CreatedAt})
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded predict answered %d", resp.StatusCode)
	}
	var pr PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if pr.Verdict != string(core.VerdictFallback) {
		t.Fatalf("full blackout under a coverage floor must fall back, got %+v", pr)
	}
	if pr.DataHealth == nil || pr.DataHealth.DatasetCoverage != 0 {
		t.Fatalf("fallback must carry its data health: %+v", pr.DataHealth)
	}
}
