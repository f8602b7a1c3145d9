// Package serving is the reproduction's Resource Central stand-in (§6):
// the production ML system that manages the lifecycle of the Scout's
// models. An offline component trains and snapshots models; a store
// persists the versioned snapshots; an online component serves REST
// predictions, hot-swapping models when a new version lands.
package serving

import (
	"bytes"
	"fmt"
	"log"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"scouts/internal/core"
	"scouts/internal/httpx"
	"scouts/internal/incident"
	"scouts/internal/monitoring"
	"scouts/internal/telemetry"
	"scouts/internal/topology"
)

// Model is one versioned, trained Scout.
type Model struct {
	Version   int       `json:"version"`
	Team      string    `json:"team"`
	TrainedAt time.Time `json:"trained_at"`
	Snapshot  []byte    `json:"snapshot"`

	// path is set on store entries registered lazily by LoadStore:
	// the on-disk file backing this version, read and verified on first
	// access. Empty for models published in-process or loaded eagerly.
	path string
}

// Store keeps versioned model snapshots (the "highly available storage
// system" between the offline and online components).
type Store struct {
	mu     sync.Mutex
	models []Model
	// lazyQuarantined records files that failed verification when a lazy
	// entry was first materialized; see QuarantinedLazy.
	lazyQuarantined []QuarantinedFile

	// Now stamps TrainedAt on published models. It defaults to time.Now;
	// tests inject a fixed clock so snapshot metadata — and therefore
	// serialized store contents — are bit-reproducible.
	Now func() time.Time
}

// NewStore creates an empty store reading the wall clock.
func NewStore() *Store { return &Store{Now: time.Now} }

// Put appends a new model version and returns its version number. The
// snapshot bytes are copied: the store models durable storage, so a caller
// later mutating (or recycling) its buffer must not corrupt the stored
// version. Version numbers continue from the highest stored version —
// a store reloaded around quarantined files may have gaps, and a new
// publish must never reuse a quarantined version's number.
func (st *Store) Put(team string, snapshot []byte) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.Now == nil { // zero-value Stores still work
		st.Now = time.Now
	}
	v := 1
	if n := len(st.models); n > 0 {
		v = st.models[n-1].Version + 1
	}
	st.models = append(st.models, Model{
		Version: v, Team: team, TrainedAt: st.Now().UTC(),
		Snapshot: bytes.Clone(snapshot),
	})
	return v
}

// Latest returns the newest model (ok == false when empty). The returned
// Snapshot is the caller's to keep: it never aliases store-internal bytes.
// A lazily-registered newest version is materialized first; if its file
// turns out to be damaged it is quarantined and the next-newest healthy
// version answers instead.
func (st *Store) Latest() (Model, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for len(st.models) > 0 {
		i := len(st.models) - 1
		if st.materializeLocked(i) {
			return copyModel(st.models[i]), true
		}
	}
	return Model{}, false
}

// Get returns a specific version. Like Latest, the Snapshot is a copy.
// Lookup is by the model's Version field, not position: stores reloaded
// around quarantined files may hold non-contiguous versions. Lazy entries
// are read and verified here, on first access; a damaged file is
// quarantined exactly as an eager load would have, and Get answers false.
func (st *Store) Get(version int) (Model, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for i := range st.models {
		if st.models[i].Version == version {
			if !st.materializeLocked(i) {
				return Model{}, false
			}
			return copyModel(st.models[i]), true
		}
	}
	return Model{}, false
}

// materializeLocked ensures models[i] holds its snapshot bytes, reading
// and verifying the backing file for lazy entries. On verification
// failure the file is quarantined, the entry is dropped from the store,
// and false is returned. Callers hold st.mu.
func (st *Store) materializeLocked(i int) bool {
	m := &st.models[i]
	if m.Snapshot != nil || m.path == "" {
		return m.Snapshot != nil
	}
	loaded, reason := loadModelFile(m.path, m.Version)
	if reason != "" {
		st.lazyQuarantined = append(st.lazyQuarantined, quarantineFile(m.path, reason))
		st.models = append(st.models[:i], st.models[i+1:]...)
		return false
	}
	loaded.path = m.path
	*m = loaded
	return true
}

// QuarantinedLazy drains the quarantine events produced by lazy loads
// since the last call — the deferred complement of LoadReport.Quarantined.
func (st *Store) QuarantinedLazy() []QuarantinedFile {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := st.lazyQuarantined
	st.lazyQuarantined = nil
	return out
}

func copyModel(m Model) Model {
	m.Snapshot = bytes.Clone(m.Snapshot)
	return m
}

// Versions returns the number of stored versions.
func (st *Store) Versions() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.models)
}

// Trainer is the offline component: it trains Scouts and publishes their
// scoutpack snapshots to a store.
type Trainer struct {
	Store *Store
}

// TrainAndPublish trains a Scout and stores its snapshot, returning the
// scout and the published version.
func (tr *Trainer) TrainAndPublish(opt core.TrainOptions) (*core.Scout, int, error) {
	scout, err := core.Train(opt)
	if err != nil {
		return nil, 0, err
	}
	snap, err := scout.SnapshotPack()
	if err != nil {
		return nil, 0, err
	}
	return scout, tr.Store.Put(scout.Team(), snap), nil
}

// PredictRequest is the online API's input: the incident as the incident
// manager sees it.
type PredictRequest struct {
	Title      string   `json:"title"`
	Body       string   `json:"body"`
	Components []string `json:"components,omitempty"`
	// Time is the trigger time in model hours. It is required and must be
	// positive: "now" is meaningless for the synthetic substrate, and a
	// zero Time would score the incident against the wrong monitoring
	// window, so missing/negative values are rejected with 400.
	Time float64 `json:"time"`
}

// PredictResponse is the online API's output: the Scout's full answer with
// the §8 operator guidance attached.
type PredictResponse struct {
	Team           string   `json:"team"`
	Verdict        string   `json:"verdict"`
	Responsible    bool     `json:"responsible"`
	Confidence     float64  `json:"confidence"`
	Model          string   `json:"model"`
	Components     []string `json:"components,omitempty"`
	Explanation    string   `json:"explanation"`
	Recommendation string   `json:"recommendation"`
	ModelVersion   int      `json:"model_version"`
	// DataHealth reports the monitoring quality behind the answer; absent
	// for gate verdicts, which never consult monitoring.
	DataHealth *DataHealthInfo `json:"data_health,omitempty"`
}

// DataHealthInfo is the wire form of a prediction's core.DataHealth: how
// much of the answer rests on imputed features, which datasets were dark,
// and how stale the admitted data was.
type DataHealthInfo struct {
	ImputedFraction   float64  `json:"imputed_fraction"`
	DatasetCoverage   float64  `json:"dataset_coverage"`
	DatasetsDown      []string `json:"datasets_down,omitempty"`
	MaxStalenessHours float64  `json:"max_staleness_hours"`
}

func healthInfo(h *core.DataHealth) *DataHealthInfo {
	if h == nil {
		return nil
	}
	return &DataHealthInfo{
		ImputedFraction:   h.ImputedFraction(),
		DatasetCoverage:   h.DatasetCoverage(),
		DatasetsDown:      h.DatasetsDown,
		MaxStalenessHours: h.MaxStaleness,
	}
}

// BatchPredictRequest is the input of POST /v1/predict:batch: up to
// MaxBatchItems incidents scored against one model load.
type BatchPredictRequest struct {
	Items []PredictRequest `json:"items"`
}

// BatchItemResult is the per-item answer: exactly one of Prediction and
// Error is set. Item-level validation failures do not fail the batch.
type BatchItemResult struct {
	Prediction *PredictResponse `json:"prediction,omitempty"`
	Error      string           `json:"error,omitempty"`
}

// BatchPredictResponse answers a batch. Results[i] corresponds to
// Items[i]; ModelVersion is the single model version every item was
// scored with (the model cannot change mid-batch).
type BatchPredictResponse struct {
	ModelVersion int               `json:"model_version"`
	Results      []BatchItemResult `json:"results"`
}

// Request-size limits. Single predictions carry one incident's title and
// body, so 1 MiB is generous; batches carry up to MaxBatchItems of them.
const (
	maxPredictBody = 1 << 20
	maxBatchBody   = 8 << 20
	// MaxBatchItems caps the items per batch call so one request cannot
	// monopolize the scorer; larger workloads should page.
	MaxBatchItems = 256
)

// Server is the online component: a REST scorer with hot-swappable models.
//
// The exported knobs harden it against overload and degraded monitoring;
// set them before Handler()/Reload() and leave them alone afterwards:
//
//   - MaxInFlight > 0 bounds concurrently-served requests; excess load is
//     shed with 429 + Retry-After instead of queueing without bound.
//   - RequestTimeout > 0 puts a deadline on every request: the handler
//     runs under a context that expires, and a request that overruns
//     answers 503 with a JSON body (see withDeadline).
//   - Degradation is applied to every Scout the server loads: predictions
//     whose monitoring coverage falls below the floor answer
//     VerdictFallback rather than guessing from imputed means.
type Server struct {
	topo   *topology.Topology
	source monitoring.DataSource
	store  *Store

	MaxInFlight    int
	RequestTimeout time.Duration
	Degradation    core.DegradationPolicy
	// RetryAfterBase scales the Retry-After hint on shed (429) responses
	// (default 1s). The emitted hint grows with sustained pressure: each
	// MaxInFlight consecutive sheds add another base interval (capped at
	// 8x), so a client fleet hammering a saturated server is pushed back
	// harder the longer the saturation lasts, and the first shed after a
	// quiet period hints only the base.
	RetryAfterBase time.Duration

	// ReloadStore, when set, is consulted at the start of every Reload:
	// it re-reads the backing storage (scoutd points it at its -store
	// directory) and returns a fresh Store, so POST /v1/reload picks up
	// versions published by another process — e.g. an offline trainer
	// writing into the same directory. Errors fail the reload; the
	// previously-served model stays.
	ReloadStore func() (*Store, error)

	// Access, when set, receives one structured JSON line per request
	// (request ID, endpoint, status, latency) plus prediction-fallback
	// events. Nil — the default — logs nothing; see telemetry.Logger.
	Access *telemetry.Logger
	// InstanceID prefixes generated request IDs so IDs from different
	// replicas never collide in aggregated logs. Empty is fine for tests
	// and single-instance runs.
	InstanceID string
	// Clock times requests for the latency histograms. NewServer sets it
	// to time.Now; tests inject a fake to make recorded durations exact.
	Clock func() time.Time

	current atomic.Pointer[servingModel]
	// reloadMu serializes Reload calls: concurrent /v1/reload requests
	// must not interleave a ReloadStore swap with a Latest read.
	reloadMu sync.Mutex
	logger   *log.Logger
	tel      *serverMetrics
	// web is the HTTP spine: envelope, strict decode, instrumented mux and
	// panic recovery, shared with the gateway.
	web    *httpx.Spine
	reqSeq atomic.Uint64
	// inflight is the shedding semaphore, sized on first Handler() call.
	inflight chan struct{}
	// shedStreak counts consecutive sheds since the last admitted request;
	// it scales the Retry-After hint under sustained saturation.
	shedStreak atomic.Int64
	// lastTime remembers the largest trigger time (model hours, as float64
	// bits) any prediction asked about: the serving layer has no model-hours
	// clock of its own, and /v1/health needs *some* time to evaluate
	// schedule-driven availability at. Monotonic by construction, never the
	// wall clock.
	lastTime atomic.Uint64
}

type servingModel struct {
	scout   *core.Scout
	version int
}

// NewServer builds an online scorer over a data source. Call Reload (or
// serve a model via the store) before the first prediction.
func NewServer(topo *topology.Topology, source monitoring.DataSource, store *Store, logger *log.Logger) *Server {
	if logger == nil {
		logger = log.New(logDiscard{}, "", 0)
	}
	s := &Server{
		topo: topo, source: source, store: store, logger: logger,
		tel:   newServerMetrics(),
		Clock: time.Now,
	}
	s.web = httpx.New(s.tel.reg, "scout_http", endpoints, logger)
	s.registerSourceMetrics()
	return s
}

type logDiscard struct{}

func (logDiscard) Write(p []byte) (int, error) { return len(p), nil }

// Reload loads the newest snapshot from the store (after refreshing the
// store itself through ReloadStore, when set). The restore is timed with
// the server's clock and exported as scout_model_load_duration_seconds,
// alongside the snapshot's size and format — the observable difference
// between a JSON restore and a scoutpack's zero-re-derivation load.
func (s *Server) Reload() error {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if s.ReloadStore != nil {
		st, err := s.ReloadStore()
		if err != nil {
			return fmt.Errorf("serving: refreshing store: %w", err)
		}
		s.store = st
	}
	m, ok := s.store.Latest()
	if !ok {
		return fmt.Errorf("serving: store is empty")
	}
	clock := s.Clock
	if clock == nil {
		clock = time.Now
	}
	start := clock()
	scout, err := core.Restore(m.Snapshot, s.topo, s.source)
	if err != nil {
		return fmt.Errorf("serving: restoring v%d: %w", m.Version, err)
	}
	s.tel.setLoadStats(clock().Sub(start), len(m.Snapshot), core.IsScoutpack(m.Snapshot))
	s.install(scout, m.Version)
	s.logger.Printf("serving: loaded %s scout v%d", m.Team, m.Version)
	return nil
}

// Install serves an already-restored Scout. The training path uses it to
// publish the scout it just trained without a snapshot round trip — the
// forest's flat inference view is derived once, at Train, and never again
// (pack_test pins the derivation count). Version is bookkeeping only; it
// should match what the store would report for this model.
func (s *Server) Install(scout *core.Scout, version int) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	s.install(scout, version)
}

// install applies the server-owned policies and swaps the model in.
// Restore/Train build fresh Scouts, so the degradation policy and
// observer must be re-applied on every load.
func (s *Server) install(scout *core.Scout, version int) {
	scout.SetDegradationPolicy(s.Degradation)
	scout.SetObserver(s)
	s.current.Store(&servingModel{scout: scout, version: version})
	s.tel.modelVersion.Set(int64(version))
	s.tel.reloads.Inc()
}

// Scout returns the currently-served Scout (nil before Reload).
func (s *Server) Scout() *core.Scout {
	if m := s.current.Load(); m != nil {
		return m.scout
	}
	return nil
}

// Handler returns the REST mux:
//
//	GET  /v1/health  -> {"status":"ok"|"degraded","model_version":N,...}
//	GET  /v1/model   -> model metadata
//	POST /v1/reload  -> hot-swap to the latest stored model
//	POST /v1/predict -> PredictRequest -> PredictResponse
//	POST /v1/predict:batch -> BatchPredictRequest -> BatchPredictResponse
//	GET  /metrics    -> Prometheus text exposition of every scout_* series
//
// The routes sit on the shared spine (internal/httpx): every one is
// instrumented (latency histogram, status counters, access log) and
// unrouted paths land on a JSON 404 catch-all. The whole mux sits under
// the hardening chain, outermost first: request-ID stamping (every
// request gets an X-Request-Id, even ones later shed or timed out), panic
// recovery (a scoring panic answers 500, it does not kill the process),
// load shedding (MaxInFlight; beyond it 429 + Retry-After), request
// deadline (RequestTimeout; an overrun answers 503 and the handler's
// context expires so in-flight scoring stops). Shed and timed-out
// requests are counted in the global scout_http_requests_shed_total /
// _timeouts_total rather than per endpoint: they are rejected before (or
// torn from) the routed handler, so per-endpoint attribution would lie
// about who did work.
func (s *Server) Handler() http.Handler {
	if s.Clock == nil { // zero-value Servers still serve
		s.Clock = time.Now
	}
	mux := s.web.Mux(s.Clock, s.Access)
	mux.Handle("GET /v1/health", "/v1/health", http.HandlerFunc(s.handleHealth))
	mux.Handle("GET /v1/model", "/v1/model", http.HandlerFunc(s.handleModel))
	mux.Handle("POST /v1/reload", "/v1/reload", http.HandlerFunc(s.handleReload))
	mux.Handle("POST /v1/predict", "/v1/predict", http.HandlerFunc(s.handlePredict))
	mux.Handle("POST /v1/predict:batch", "/v1/predict:batch", http.HandlerFunc(s.handlePredictBatch))
	mux.Handle("GET /metrics", "/metrics", s.tel.reg)
	var h http.Handler = mux
	if s.RequestTimeout > 0 {
		h = s.withDeadline(h)
	}
	if s.MaxInFlight > 0 {
		if s.inflight == nil {
			s.inflight = make(chan struct{}, s.MaxInFlight)
		}
		h = s.withShedding(h)
	}
	return s.withRequestID(s.web.Recover(h))
}

// withShedding admits at most MaxInFlight concurrent requests; the rest
// are shed immediately with 429 and a Retry-After hint rather than queued
// (queued requests would stack deadlines and fail slowly — overload
// should fail fast and cheap).
func (s *Server) withShedding(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
			s.shedStreak.Store(0)
			next.ServeHTTP(w, r)
		default:
			s.tel.shed.Inc()
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
			s.web.WriteError(w, http.StatusTooManyRequests,
				fmt.Sprintf("server at capacity (%d in flight); retry shortly", s.MaxInFlight))
		}
	})
}

// retryAfterSeconds derives the shed hint from current pressure: the
// configured base, plus one more base interval per MaxInFlight
// consecutive sheds (a streak that long means a full capacity's worth
// of clients was turned away without a single admission in between),
// capped at 8 bases. Always at least one whole second — fractional
// Retry-After is not representable in the delay-seconds form.
func (s *Server) retryAfterSeconds() int {
	base := s.RetryAfterBase
	if base <= 0 {
		base = time.Second
	}
	streak := s.shedStreak.Add(1)
	mult := 1 + streak/int64(max(s.MaxInFlight, 1))
	if mult > 8 {
		mult = 8
	}
	secs := int((base*time.Duration(mult) + time.Second - 1) / time.Second)
	return max(secs, 1)
}

// observeTime feeds a request's trigger time into the health clock
// (monotonic max of all times seen).
func (s *Server) observeTime(t float64) {
	bits := math.Float64bits(t)
	for {
		old := s.lastTime.Load()
		if math.Float64frombits(old) >= t {
			return
		}
		if s.lastTime.CompareAndSwap(old, bits) {
			return
		}
	}
}

// handleHealth answers 200 with status "ok", or status "degraded" plus
// the per-dataset picture when the data source admits to trouble (an
// outage schedule, an open circuit breaker). Degraded is still 200: the
// server can serve — with imputation and fallbacks — and a load balancer
// should not evict it for its monitoring substrate's problems. 503 stays
// reserved for "no model loaded".
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	m := s.current.Load()
	if m == nil {
		s.web.WriteError(w, http.StatusServiceUnavailable, "no model loaded")
		return
	}
	body := map[string]any{"status": "ok", "model_version": m.version}
	if hr := monitoring.HealthReporterOf(s.source); hr != nil {
		t := math.Float64frombits(s.lastTime.Load())
		snap := hr.HealthSnapshot(t)
		for _, h := range snap {
			if !h.Available || h.Breaker == "open" || h.Staleness > 0 {
				body["status"] = "degraded"
				break
			}
		}
		body["data_health"] = snap
		body["health_time"] = t
	}
	s.web.WriteJSON(w, http.StatusOK, body)
}

func (s *Server) handleModel(w http.ResponseWriter, _ *http.Request) {
	m := s.current.Load()
	if m == nil {
		s.web.WriteError(w, http.StatusServiceUnavailable, "no model loaded")
		return
	}
	s.web.WriteJSON(w, http.StatusOK, map[string]any{
		"team":          m.scout.Team(),
		"model_version": m.version,
		"features":      len(m.scout.FeatureNames()),
		"top_features":  m.scout.TopFeatures(5),
	})
}

// handleReload hot-swaps to the latest stored model. Failures (empty
// store, corrupt snapshot) answer 503 Service Unavailable, not a 4xx: the
// caller did nothing wrong — the serving side is not ready — and load
// balancers and the scoutd health loop treat 503 as "take me out of
// rotation, retry later".
func (s *Server) handleReload(w http.ResponseWriter, _ *http.Request) {
	if err := s.Reload(); err != nil {
		s.web.WriteError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	s.handleHealth(w, nil)
}

// validatePredict applies the request invariants shared by the single and
// batch endpoints, returning "" when the item is scoreable.
func validatePredict(req *PredictRequest) string {
	if req.Title == "" && req.Body == "" {
		return "title or body required"
	}
	// Time is required: a missing (zero) or negative trigger time would
	// silently score the incident against the t=0 monitoring window — a
	// wrong answer with full confidence — so reject it instead.
	if req.Time <= 0 {
		return "time is required and must be positive (trigger time in model hours)"
	}
	return ""
}

func (m *servingModel) response(p core.Prediction) PredictResponse {
	return PredictResponse{
		Team:           m.scout.Team(),
		Verdict:        string(p.Verdict),
		Responsible:    p.Responsible,
		Confidence:     p.Confidence,
		Model:          p.Model,
		Components:     p.Components,
		Explanation:    p.Explanation,
		Recommendation: recommendation(m.scout.Team(), &p),
		ModelVersion:   m.version,
		DataHealth:     healthInfo(p.Health),
	}
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	m := s.current.Load()
	if m == nil {
		s.web.WriteError(w, http.StatusServiceUnavailable, "no model loaded")
		return
	}
	var req PredictRequest
	if !s.web.Decode(w, r, maxPredictBody, &req) {
		return
	}
	if msg := validatePredict(&req); msg != "" {
		s.web.WriteError(w, http.StatusBadRequest, msg)
		return
	}
	s.observeTime(req.Time)
	p := m.scout.PredictCtx(r.Context(), req.Title, req.Body, req.Components, req.Time)
	s.web.WriteJSON(w, http.StatusOK, m.response(p))
}

// handlePredictBatch scores up to MaxBatchItems incidents in one call. The
// model pointer is loaded ONCE, so every item in a batch is answered by
// the same version even if a reload lands mid-request. Item-level
// validation failures yield per-item errors in a 200 response — a batch is
// a unit of transport, not of validity — while request-level problems
// (empty batch, too many items, oversized or malformed body) fail the
// whole call.
func (s *Server) handlePredictBatch(w http.ResponseWriter, r *http.Request) {
	m := s.current.Load()
	if m == nil {
		s.web.WriteError(w, http.StatusServiceUnavailable, "no model loaded")
		return
	}
	var req BatchPredictRequest
	if !s.web.Decode(w, r, maxBatchBody, &req) {
		return
	}
	if len(req.Items) == 0 {
		s.web.WriteError(w, http.StatusBadRequest, "batch must contain at least one item")
		return
	}
	if len(req.Items) > MaxBatchItems {
		s.web.WriteError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch has %d items; max is %d", len(req.Items), MaxBatchItems))
		return
	}
	resp := BatchPredictResponse{
		ModelVersion: m.version,
		Results:      make([]BatchItemResult, len(req.Items)),
	}
	// Validate every item first, then score the valid ones in batched
	// Scout calls.
	valid := make([]int, 0, len(req.Items))
	batch := make([]core.BatchRequest, 0, len(req.Items))
	for i := range req.Items {
		it := &req.Items[i]
		if msg := validatePredict(it); msg != "" {
			resp.Results[i].Error = msg
			continue
		}
		valid = append(valid, i)
		batch = append(batch, core.BatchRequest{
			Title: it.Title, Body: it.Body, Components: it.Components, Time: it.Time,
		})
		s.observeTime(it.Time)
	}
	// Score in chunks and honor the request deadline between chunks: once
	// the context expires (withDeadline has already answered 503),
	// finishing the batch would burn CPU on an answer nobody receives.
	const chunk = 32
	ctx := r.Context()
	for lo := 0; lo < len(batch); lo += chunk {
		if ctx.Err() != nil {
			return
		}
		hi := min(lo+chunk, len(batch))
		for k, p := range m.scout.PredictBatchCtx(ctx, batch[lo:hi]) {
			pr := m.response(p)
			resp.Results[valid[lo+k]].Prediction = &pr
		}
	}
	s.web.WriteJSON(w, http.StatusOK, resp)
}

// recommendation renders the §8 operator-facing fine print, in one buffer:
// the string is its only allocation.
func recommendation(team string, p *core.Prediction) string {
	if !p.Usable() {
		return "The Scout could not extract components; use the existing routing process."
	}
	var arr [512]byte
	out := append(arr[:0], "The "...)
	out = append(out, team...)
	out = append(out, " Scout investigated "...)
	out = strconv.AppendInt(out, int64(len(p.Components)), 10)
	out = append(out, " component(s) and suggests this "...)
	if p.Responsible {
		out = append(out, "IS a "...)
	} else {
		out = append(out, "is NOT a "...)
	}
	out = append(out, team...)
	out = append(out, " incident. Its confidence is "...)
	out = strconv.AppendFloat(out, p.Confidence, 'f', 2, 64) // fmt's %.2f
	out = append(out, ". We recommend not using this output if confidence is below 0.80. "+
		"Attention: known false negatives occur for transient issues, when an incident is created "+
		"after the problem has already been resolved, and if the incident is too broad in scope."...)
	return string(out)
}

// PredictIncident lets the serving model be used as an evaluate.Predictor.
func (s *Server) PredictIncident(in *incident.Incident) core.Prediction {
	m := s.current.Load()
	if m == nil {
		return core.Prediction{Verdict: core.VerdictFallback, Model: "none"}
	}
	return m.scout.PredictIncident(in)
}
