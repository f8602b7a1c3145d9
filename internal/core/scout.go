package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"scouts/internal/incident"
	"scouts/internal/metrics"
	"scouts/internal/ml/cpd"
	"scouts/internal/ml/forest"
	"scouts/internal/ml/mlcore"
	"scouts/internal/monitoring"
	"scouts/internal/parallel"
	"scouts/internal/topology"
)

// Verdict is the kind of answer a Scout gives for an incident.
type Verdict string

// Verdicts.
const (
	// VerdictResponsible / VerdictNotResponsible are model answers.
	VerdictResponsible    Verdict = "responsible"
	VerdictNotResponsible Verdict = "not-responsible"
	// VerdictExcluded: an EXCLUDE rule matched — explicitly out of scope.
	VerdictExcluded Verdict = "excluded"
	// VerdictFallback: no components could be extracted; the incident is
	// too broad for the Scout and goes to the legacy routing process
	// (§5.3).
	VerdictFallback Verdict = "fallback"
)

// Prediction is a Scout's full answer: label, confidence and explanation
// (§4 requires all three).
type Prediction struct {
	Verdict     Verdict
	Responsible bool
	Confidence  float64 // in [0.5, 1] for model verdicts
	Model       string  // "rf", "cpd+", "exclude-rule", "none"
	// Components are the extracted components the answer examined:
	// read-only, and on the request path the extraction's own array.
	Components []string
	// Text is the explanation of a gate, fallback or CPD+ answer. An RF
	// answer leaves it empty and keeps what its explanation is rendered
	// from (rf); Explanation and AppendExplanation give any answer's.
	Text string
	rf   rfExplanation
	// Health, when HasHealth is set, reports the monitoring data quality
	// behind the answer: imputed feature fraction, unavailable datasets,
	// admitted staleness (§6). Gate verdicts (excluded, no components)
	// carry none — they never consult monitoring.
	Health    DataHealth
	HasHealth bool
}

// Usable reports whether the prediction can drive routing (fallback
// verdicts cannot).
func (p Prediction) Usable() bool { return p.Verdict != VerdictFallback }

// rfExplanation is what an RF answer's explanation is rendered from: the
// team the forest points to or away from, set on RF answers only, and its
// strongest signals, taken before the feature vector went back to its pool.
type rfExplanation struct {
	team    string
	signals [3]forest.Contribution
	n       int
}

// Explanation is the answer's operator-facing explanation (§8), for logs
// and tests. The served answer appends it instead (AppendExplanation), so
// an RF answer's text is never made as a string there.
func (p Prediction) Explanation() string {
	if p.Text != "" || p.rf.team == "" {
		return p.Text
	}
	var buf [512]byte
	return string(p.AppendExplanation(buf[:0]))
}

// AppendExplanation appends the answer's explanation to dst: Text, or an
// RF answer's rendered from its signals — the monitoring signals that drove
// the decision and the fine print about known failure modes.
func (p Prediction) AppendExplanation(dst []byte) []byte {
	if p.Text != "" || p.rf.team == "" {
		return append(dst, p.Text...)
	}
	dst = append(dst, "random forest points "...)
	if p.Responsible {
		dst = append(dst, "to "...)
	} else {
		dst = append(dst, "away from "...)
	}
	dst = append(dst, p.rf.team...)
	if p.rf.n > 0 {
		dst = append(dst, "; strongest signals: "...)
		dst = forest.AppendSignals(dst, p.rf.signals[:p.rf.n])
	}
	return append(dst, ". Known false negatives: transient issues already resolved, symptoms not covered by monitoring, incidents too broad in scope."...)
}

// TrainOptions configure Scout training.
type TrainOptions struct {
	// Config is the parsed team configuration (required).
	Config *Config
	// Topology is the component hierarchy (required).
	Topology *topology.Topology
	// Source serves monitoring data (required).
	Source monitoring.DataSource
	// Incidents is the labelled training trace: an incident is a positive
	// example when OwnerLabel equals the configured team.
	Incidents []*incident.Incident
	// Forest parameterizes the main supervised model.
	Forest forest.Params
	// Selector parameterizes the model selector.
	Selector SelectorParams
	// Detector parameterizes change-point detection inside CPD+.
	Detector cpd.Params
	// Seed drives the train/holdout split.
	Seed int64
	// AgeDecayHours, when positive, down-weights old incidents with scale
	// AgeDecayHours (§8 "Down-weighting old incidents").
	AgeDecayHours float64
	// BoostIDs up-weights previously mis-classified incidents by
	// BoostFactor in this retraining round (§8 "Learning from past
	// mistakes").
	BoostIDs    map[string]bool
	BoostFactor float64
	// MaxCPDExamples caps how many broad incidents train CPD+'s
	// cluster-level forest (default 200; CPD is the expensive path).
	MaxCPDExamples int
	// Cache, when non-nil, memoizes featurization across retraining
	// rounds. It must be dedicated to this (Config, Topology, Source)
	// combination.
	Cache *FeatureCache
	// Workers bounds the goroutines used for per-incident featurization
	// and tree growing; 0 selects runtime.GOMAXPROCS(0). Training output
	// is bit-identical for every worker count.
	Workers int
}

// Scout is a trained per-team gate-keeper.
type Scout struct {
	cfg      *Config
	fb       *FeatureBuilder
	rf       *forest.Forest
	cpdPlus  *cpd.Plus
	selector DeciderModel
	// trainMeans holds per-feature training means for imputation when a
	// monitoring system is unavailable at inference time (§6).
	trainMeans []float64
	// Selector meta-training data, retained so alternative decider models
	// can be fitted for comparison (Figure 8): each holdout example's
	// position in the incidents the Scout trained on, and whether the
	// preliminary forest got it wrong.
	selHeld  []int
	selWrong []bool
	// degrade decides when monitoring has degraded too far to answer
	// through a model (zero value: never).
	degrade DegradationPolicy
	// obs, when set, sees every prediction the request paths produce
	// (single and batch) together with the request context, so the
	// serving layer can count models, fallbacks and imputation and tie
	// degradation events to request IDs. Never serialized; Restore
	// builds observer-less Scouts and the server re-installs its
	// observer on every load.
	obs PredictObserver
	// vecs pools the transient feature vectors of the predict paths: a
	// vector lives only for the span of one prediction (nothing retains
	// it), so pooling makes request scoring free of per-request
	// feature-vector garbage. Scouts are always used by pointer.
	vecs sync.Pool
}

// ErrNoTrainingIncidents is returned when Train is given no incidents.
var ErrNoTrainingIncidents = errors.New("core: no training incidents")

// Train builds a Scout from a configuration and a labelled incident trace.
// This is the Scout framework's "starter Scout" pipeline (Figure 5): the
// team supplies only the configuration; everything else is automatic.
func Train(opt TrainOptions) (*Scout, error) {
	if opt.Config == nil || opt.Topology == nil || opt.Source == nil {
		return nil, errors.New("core: Config, Topology and Source are required")
	}
	if len(opt.Incidents) == 0 {
		return nil, ErrNoTrainingIncidents
	}
	if opt.Forest.NumTrees == 0 {
		opt.Forest = forest.Params{NumTrees: 100, MaxDepth: 14, Seed: opt.Seed}
	}
	if opt.Forest.Workers == 0 {
		opt.Forest.Workers = opt.Workers
	}
	if opt.Selector.Forest.Workers == 0 {
		opt.Selector.Forest.Workers = opt.Workers
	}
	if opt.MaxCPDExamples <= 0 {
		opt.MaxCPDExamples = 200
	}
	if opt.Detector.Permutations == 0 {
		// A fidelity setting, not a speed cap: at 29 permutations the
		// smallest p-value the test can reach is 1/30, one permutation from
		// alpha = 0.05, where cpd's default is 99. Since the running-sum
		// scans a 40-point Detect at 99 costs about what 29 cost without
		// them (BenchmarkDetect n=40: 26.5 → 9.4 µs at 29 and 98 → 24 µs at
		// 99 with the permutation test's, PR 27; then, on a box where 29
		// read 14.7 µs, 14.7 → 9.4 at 29 and 38.4 → 27.9 at 99 with the
		// best split's, PR 48). The number moves in ROADMAP direction 1
		// step 2, as a reviewed golden diff.
		opt.Detector.Permutations = 29
	}
	s := &Scout{cfg: opt.Config}
	s.fb = NewFeatureBuilder(opt.Config, opt.Topology, opt.Source)

	// Featurize the trainable incidents (those with extractable
	// components; the rest use legacy routing, §7) in parallel. Each
	// incident's features are a pure function of (incident, config,
	// source), so workers only need index-addressed slots; rows are then
	// assembled sequentially in incident order, which keeps the dataset —
	// and everything trained on it — bit-identical at any worker count.
	type row struct {
		in *incident.Incident
		at int // the incident's position in opt.Incidents
		*memo
	}
	workers := parallel.Workers(opt.Workers)
	memos := opt.Cache.memos(workers, s.fb, opt.Incidents)
	rows := make([]row, 0, len(memos))
	for i, m := range memos {
		if m.x == nil {
			continue // gated: no vector
		}
		rows = append(rows, row{in: opt.Incidents[i], at: i, memo: m})
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("core: none of the %d incidents had extractable components", len(opt.Incidents))
	}

	d := &mlcore.Dataset{Features: s.fb.FeatureNames(), Samples: make([]mlcore.Sample, 0, len(rows))}
	for _, r := range rows {
		d.MustAdd(mlcore.Sample{
			X:    r.x,
			Y:    r.in.OwnerLabel == opt.Config.Team,
			Time: r.in.CreatedAt,
			ID:   r.in.ID,
		})
	}
	if opt.AgeDecayHours > 0 {
		now := 0.0
		for _, smp := range d.Samples {
			if smp.Time > now {
				now = smp.Time
			}
		}
		d.AgeDecay(now, opt.AgeDecayHours)
	}
	if opt.BoostFactor > 0 && len(opt.BoostIDs) > 0 {
		d.Boost(opt.BoostIDs, opt.BoostFactor)
	}

	// One trainer grows the four forests. The main supervised model, which
	// trains on everything, is the largest, so it goes first: the
	// trainer's buffers, sized for it, then serve the other three.
	var trainer forest.Trainer
	rf, err := trainer.Train(d, opt.Forest)
	if err != nil {
		return nil, fmt.Errorf("core: main forest: %w", err)
	}
	s.rf = rf

	// Selector meta-training: fit a preliminary forest on ~70%, label the
	// held-out 30% by whether that forest got them right, and train the
	// decider on those labels (§5.3 meta-learning).
	fitIdx, holdIdx := holdoutSplit(d.Len(), opt.Seed)
	if len(fitIdx) > 0 && len(holdIdx) > 0 {
		pre, err := trainer.Train(d.Subset(fitIdx), opt.Forest)
		if err != nil {
			return nil, fmt.Errorf("core: preliminary forest: %w", err)
		}
		examples := make([]selectorExample, len(holdIdx))
		s.selHeld, s.selWrong = make([]int, len(holdIdx)), make([]bool, len(holdIdx))
		for k, i := range holdIdx {
			smp, in := d.Samples[i], rows[i].in
			pred, _ := pre.Predict(smp.X)
			examples[k] = selectorExample{title: in.Title, body: in.Body, rfWrong: pred != smp.Y, id: smp.ID}
			s.selHeld[k], s.selWrong[k] = rows[i].at, examples[k].rfWrong
		}
		opt.Selector.Forest.Seed = opt.Seed + 1
		if s.selector, err = trainSelector(examples, opt.Selector, &trainer); err != nil {
			return nil, err
		}
	} else {
		s.selector = &Selector{}
	}

	// CPD+ trains its cluster-level forest on broad incidents. Featurized
	// vectors (the change-point detection output) are cached: they are the
	// expensive part of retraining.
	plusParams := cpd.PlusParams{
		Datasets: s.fb.DatasetNames(),
		Detector: opt.Detector,
		Forest:   forest.Params{NumTrees: 40, MaxDepth: 8, Seed: opt.Seed + 2, Workers: opt.Workers},
	}
	// The MaxCPDExamples cap is order-dependent, so pick the training rows
	// sequentially, then run the expensive change-point featurization of
	// the missing vectors in parallel (index-addressed, order preserved).
	// Each worker assembles evidence in one Input it reuses, and the
	// vectors are carved from one block, which a cache keeps with the
	// vectors it is given: TrainPlusVectors copies them into its columns.
	cpdRows := make([]row, 0, min(len(rows), opt.MaxCPDExamples))
	for _, r := range rows {
		if !r.ex.Broad || len(cpdRows) >= opt.MaxCPDExamples {
			continue
		}
		cpdRows = append(cpdRows, r)
	}
	dim := 2 * len(plusParams.Datasets)
	inputs, block := make([]cpd.Input, workers), make([]float64, len(cpdRows)*dim)
	cpdXs := make([][]float64, len(cpdRows))
	parallel.ForWorker(workers, len(cpdRows), func(w, i int) {
		r := cpdRows[i]
		cpdXs[i] = r.cpdVector(func() []float64 {
			s.fb.CPDInputInto(&inputs[w], r.ex, r.in.CreatedAt)
			return plusParams.FeaturizeInto(block[i*dim:(i+1)*dim:(i+1)*dim], inputs[w])
		})
	})
	cpdYs := make([]bool, len(cpdRows))
	for i, r := range cpdRows {
		cpdYs[i] = r.in.OwnerLabel == opt.Config.Team
	}
	plus, err := cpd.TrainPlusVectors(cpdXs, cpdYs, plusParams, &trainer)
	if err != nil {
		return nil, fmt.Errorf("core: CPD+: %w", err)
	}
	s.cpdPlus = plus

	// Training means for feature imputation.
	s.trainMeans = make([]float64, d.Dim())
	for _, smp := range d.Samples {
		for j, v := range smp.X {
			s.trainMeans[j] += v
		}
	}
	for j := range s.trainMeans {
		s.trainMeans[j] /= float64(d.Len())
	}
	return s, nil
}

// PredictObserver sees every prediction the request-scoring paths
// produce. The context is the request context, so an observer can read
// the request ID (telemetry.RequestID) and attribute fallbacks and
// imputation to the request that suffered them. Implementations run on
// the predict hot path: they must be lock-free and allocation-free for
// non-fallback predictions (atomic counter bumps; logging only on the
// cold fallback branch). The prediction comes by value, so handing it to
// the observer does not move the caller's answer to the heap.
type PredictObserver interface {
	ObservePrediction(ctx context.Context, p Prediction)
}

// SetObserver installs the prediction observer (nil disables). Install
// before serving traffic; the field is read unsynchronized on every
// prediction.
func (s *Scout) SetObserver(o PredictObserver) { s.obs = o }

// Predict classifies one incident at trigger time t using the text and the
// structured component mentions available at that time — the §5.3 pipeline
// (Scout.predict) under the Scout's own model selector. The RF feature
// vector is drawn from the Scout's pool, so a prediction produces no
// per-request feature-vector garbage.
func (s *Scout) Predict(title, body string, mentioned []string, t float64) Prediction {
	return s.PredictCtx(context.Background(), title, body, mentioned, t)
}

// PredictCtx is Predict carrying a request context: the answer is
// identical, and the installed observer (if any) sees the prediction
// together with the context's request ID.
func (s *Scout) PredictCtx(ctx context.Context, title, body string, mentioned []string, t float64) Prediction {
	p := s.predictText(s.selector, title, body, mentioned, t)
	if s.obs != nil {
		s.obs.ObservePrediction(ctx, p)
	}
	return p
}

// predictText answers for an incident known only by its text and mentions.
func (s *Scout) predictText(decider DeciderModel, title, body string, mentioned []string, t float64) Prediction {
	m := memo{ex: s.fb.Extract(title, body, mentioned)}
	return s.predict(decider, title, body, &m, t)
}

// predict is the §5.3 pipeline, and the only place its order is written
// down: exclusion rules → component gate → decider → the health of the
// monitoring data and the degradation policy → CPD+ or RF → verdict,
// confidence and explanation. Every answer path is a caller. A request
// (Predict*, what scoutd serves) brings the Scout's selector and a memo
// holding only the extraction; PredictWithModel a constant decider;
// PredictCached the retraining memo, whose vectors stand in for the ones a
// request computes (memo.x, memo.cpdVector).
func (s *Scout) predict(decider DeciderModel, title, body string, m *memo, t float64) Prediction {
	if p, done := s.gatePrediction(m.ex); done {
		return p
	}
	if useCPD, pWrong := decider.UseCPD(title, body); useCPD {
		h := s.sourceHealth(t)
		if p, bad := s.degradedPrediction(h, &m.ex); bad {
			return p
		}
		p := s.predictCPDPath(m, t, pWrong)
		p.Health, p.HasHealth = h, true
		return p
	}
	v := s.getVec()
	defer s.putVec(v)
	h := s.featurizeWithImputationInto(v, m, t)
	if p, bad := s.degradedPrediction(h, &m.ex); bad {
		return p
	}
	p := s.predictRF(*v, &m.ex)
	p.Health, p.HasHealth = h, true
	return p
}

// BatchRequest is one incident of a batch prediction: the same inputs
// Predict takes.
type BatchRequest struct {
	Title      string
	Body       string
	Components []string
	Time       float64
}

// PredictBatch scores a batch of incidents: element i is exactly what
// Predict answers for reqs[i]. Feature vectors come from the Scout's pool
// on either path, so a batch allocates no per-item feature vector.
func (s *Scout) PredictBatch(reqs []BatchRequest) []Prediction {
	return s.PredictBatchCtx(context.Background(), reqs)
}

// PredictBatchCtx is PredictBatch carrying a request context: answers
// are identical, and the installed observer (if any) sees every item's
// prediction under the batch request's context — the request ID
// propagates from the serving middleware through the batch scorer to
// each degradation fallback. Items are scored on GOMAXPROCS workers.
func (s *Scout) PredictBatchCtx(ctx context.Context, reqs []BatchRequest) []Prediction {
	return s.predictBatch(ctx, reqs, 0)
}

// predictBatch scores reqs on the given number of workers (0 selects
// GOMAXPROCS) under the parallel layer's contract: an item is a pure
// function of its index and the read-only Scout and lands in its own slot;
// the observer, whose counters are order-sensitive, then sees the slots
// sequentially, in index order.
func (s *Scout) predictBatch(ctx context.Context, reqs []BatchRequest, workers int) []Prediction {
	out := make([]Prediction, len(reqs))
	parallel.For(workers, len(reqs), func(i int) {
		r := &reqs[i]
		out[i] = s.predictText(s.selector, r.Title, r.Body, r.Components, r.Time)
	})
	if s.obs != nil {
		for i := range out {
			s.obs.ObservePrediction(ctx, out[i])
		}
	}
	return out
}

// gatePrediction answers the pre-model gates of the §5.3 pipeline:
// exclusion rules and the component gate. done is false when the incident
// should proceed to a model.
func (s *Scout) gatePrediction(ex Extraction) (p Prediction, done bool) {
	if ex.Excluded {
		return Prediction{
			Verdict:     VerdictExcluded,
			Responsible: false,
			Confidence:  1,
			Model:       "exclude-rule",
			Text:        "an operator EXCLUDE rule marks this incident out of scope for " + s.cfg.Team,
		}, true
	}
	if ex.Empty {
		return Prediction{
			Verdict: VerdictFallback,
			Model:   "none",
			Text:    "no components could be extracted from the incident; deferring to the legacy routing process",
		}, true
	}
	return Prediction{}, false
}

// predictCPDPath answers through CPD+ for incidents the decider flags as
// new/rare. A broad incident is classified from its CPD+ vector — the
// memo's when it has one, featurized by the model's own parameters and kept
// in the memo otherwise — unless CPD+ learned no cluster-level forest: then
// the conservative rule answers every incident, and it reads the input, not
// a vector.
func (s *Scout) predictCPDPath(m *memo, t, pWrong float64) Prediction {
	var label bool
	var conf float64
	var why string
	if _, broad := s.cpdPlus.Parts(); m.ex.Broad && broad != nil {
		label, conf, why = s.cpdPlus.PredictVector(m.cpdVector(func() []float64 {
			return s.cpdPlus.Featurize(s.fb.CPDInput(m.ex, t))
		}))
	} else {
		label, conf, why = s.cpdPlus.Predict(s.fb.CPDInput(m.ex, t))
	}
	return Prediction{
		Verdict:     verdictFor(label),
		Responsible: label,
		Confidence:  conf,
		Model:       "cpd+",
		Components:  m.ex.names,
		Text:        fmt.Sprintf("model selector flagged this as a new/rare incident (P(RF wrong)=%.2f); CPD+: %s", pWrong, why),
	}
}

// predictRF answers through the supervised model, validating the vector
// against the trained layout at the Scout boundary: a mismatched vector
// (a feature cache built for a different configuration, a corrupted
// snapshot) defers to legacy routing instead of reaching — and formerly
// panicking in — tree traversal.
func (s *Scout) predictRF(x []float64, ex *Extraction) Prediction {
	if len(x) != len(s.rf.Features()) {
		return Prediction{
			Verdict: VerdictFallback,
			Model:   "none",
			Text: fmt.Sprintf("feature vector has %d features but the model was trained on %d; deferring to the legacy routing process",
				len(x), len(s.rf.Features())),
		}
	}
	label, conf := s.rf.Predict(x)
	p := Prediction{
		Verdict:     verdictFor(label),
		Responsible: label,
		Confidence:  conf,
		Model:       "rf",
		Components:  ex.names,
	}
	s.explainRF(&p, x)
	return p
}

// explainRF keeps in an RF answer what its explanation is rendered from
// (§8): the team, and the forest's strongest signals for x with the count
// features left out.
func (s *Scout) explainRF(p *Prediction, x []float64) {
	p.rf.team = s.cfg.Team
	p.rf.n = len(s.rf.TopSignals(p.rf.signals[:0], x, len(p.rf.signals), isCountFeature))
}

// getVec draws a feature vector from the pool (or allocates the first
// time). Pooled vectors are dirty; FeaturizeInto overwrites every slot. The
// pool holds pointers and a prediction carries the pointer it drew, so
// returning the vector boxes nothing.
func (s *Scout) getVec() *[]float64 {
	if v, ok := s.vecs.Get().(*[]float64); ok {
		return v
	}
	x := make([]float64, len(s.fb.names))
	return &x
}

// putVec returns a vector predictRF/explainRF have finished with.
func (s *Scout) putVec(v *[]float64) { s.vecs.Put(v) }

// PredictIncident classifies an incident at its creation time using the
// initially-known component mentions.
func (s *Scout) PredictIncident(in *incident.Incident) Prediction {
	return s.Predict(in.Title, in.Body, in.InitialComponents, in.CreatedAt)
}

// incidentRequests is the incidents as batch items: the inputs
// PredictIncident scores them on. Element i of PredictBatch over them is
// exactly PredictIncident(ins[i]).
func incidentRequests(ins []*incident.Incident) []BatchRequest {
	reqs := make([]BatchRequest, len(ins))
	for i, in := range ins {
		reqs[i] = BatchRequest{Title: in.Title, Body: in.Body, Components: in.InitialComponents, Time: in.CreatedAt}
	}
	return reqs
}

// PredictCached classifies an incident at creation time, reusing (and
// filling) a feature cache: the same pipeline as Predict, reading the
// incident through the cache's memo. The cache must belong to this Scout's
// (Config, Topology, Source) combination, and the monitoring registry must
// not have changed since the cached entries were computed — retraining
// replays satisfy both.
//
// Note the cache key is the incident ID and cached extraction uses the
// incident's full component list, so PredictCached reflects the
// steady-state information surface (as the training pipeline does): it
// answers what Predict answers given in.Components. The cache keeps the
// memo's Extraction, so the answer's Components are a copy of its own.
func (s *Scout) PredictCached(in *incident.Incident, cache *FeatureCache) Prediction {
	m := cache.memo(s.fb, in)
	p := s.predict(s.selector, in.Title, in.Body, m, in.CreatedAt)
	if p.Components != nil {
		p.Components = m.ex.All()
	}
	return p
}

func verdictFor(responsible bool) Verdict {
	if responsible {
		return VerdictResponsible
	}
	return VerdictNotResponsible
}

// featurizeWithImputationInto builds the feature vector in *v (a pooled
// vector) — the memo's raw features when it holds them, featurized now
// otherwise — substituting training means for feature groups whose
// monitoring systems are currently unavailable — exactly what the serving
// system does when a monitor fails alongside the incident (§6) — and
// reports what it did in a DataHealth so callers (and ultimately
// operators) can see how much of the answer rests on imputed data.
func (s *Scout) featurizeWithImputationInto(v *[]float64, m *memo, t float64) DataHealth {
	if m.x != nil {
		*v = append((*v)[:0], m.x...)
	} else {
		*v = s.fb.FeaturizeInto(*v, m.ex, t)
	}
	x := *v
	var buf [stackDatasets]bool
	avail, h := s.fb.sourceHealth(buf[:0], t)
	h.TotalSlots = len(x)
	if len(x) != len(s.trainMeans) {
		return h // a memo of another layout: predictRF turns it away
	}
	for _, g := range s.fb.groups {
		live := avail[:len(g.datasets)]
		avail = avail[len(g.datasets):]
		if slices.Contains(live, true) {
			continue
		}
		for _, slot := range g.slots {
			x[slot] = s.trainMeans[slot]
		}
		h.ImputedSlots += len(g.slots)
	}
	return h
}

// isCountFeature names the per-type component counts. They confuse
// operators even though the model finds them useful (§8): explanations
// leave them out.
func isCountFeature(feature string) bool { return strings.HasSuffix(feature, ".ncomponents") }

// EvaluateWorkers runs the Scout over a set of incidents (at their
// creation time) on the given number of workers (0 selects
// runtime.GOMAXPROCS(0)) and returns the confusion matrix over usable
// verdicts, mirroring §7's accuracy metrics. Fallback verdicts are skipped,
// as in the paper's evaluation. Predictions fan out over the incidents — a
// trained Scout is read-only at inference — and the confusion matrix is
// folded sequentially in incident order.
func (s *Scout) EvaluateWorkers(ins []*incident.Incident, workers int) metrics.Confusion {
	preds := s.predictBatch(context.Background(), incidentRequests(ins), workers)
	var c metrics.Confusion
	for i, p := range preds {
		if !p.Usable() {
			continue
		}
		c.Add(p.Responsible, ins[i].OwnerLabel == s.cfg.Team)
	}
	return c
}

// PredictWithModel forces one model path ("rf" or "cpd+"): the pipeline
// under a constant decider in the model selector's place, so the exclusion
// and component gates, the health report and the degradation policy all
// apply. The Table 1 comparison evaluates each model in isolation this way.
func (s *Scout) PredictWithModel(model, title, body string, mentioned []string, t float64) Prediction {
	return s.predictText(forcedModel(model == "cpd+"), title, body, mentioned, t)
}

// forcedModel is the decider that has already decided: CPD+ (true, as
// certain as a selector can be that the RF is wrong) or the RF (false).
type forcedModel bool

// UseCPD implements DeciderModel.
func (f forcedModel) UseCPD(_, _ string) (bool, float64) {
	if f {
		return true, 1
	}
	return false, 0
}

// SetDecider swaps the model-selector decider — the Figure 8 experiment
// compares the default bag-of-words RF against AdaBoost and one-class
// SVMs.
func (s *Scout) SetDecider(d DeciderModel) {
	if d != nil {
		s.selector = d
	}
}

// SelectorExamples returns the selector's meta-training data: the held-out
// incidents, taken from trained — the incidents the Scout was trained on,
// in their order — and whether the preliminary RF misclassified each. Used
// to fit alternative decider models.
func (s *Scout) SelectorExamples(trained []*incident.Incident) (held []*incident.Incident, rfWrong []bool) {
	held = make([]*incident.Incident, len(s.selHeld))
	for k, i := range s.selHeld {
		held[k] = trained[i]
	}
	return held, append([]bool(nil), s.selWrong...)
}

// FeatureNames exposes the feature layout (diagnostics, deflation study).
func (s *Scout) FeatureNames() []string { return s.fb.FeatureNames() }

// Builder exposes the feature builder (experiments need raw featurization).
func (s *Scout) Builder() *FeatureBuilder { return s.fb }

// Forest exposes the trained supervised model.
func (s *Scout) Forest() *forest.Forest { return s.rf }

// Team returns the configured team name.
func (s *Scout) Team() string { return s.cfg.Team }

// TopFeatures returns the n most important features of the supervised
// model, for reports.
func (s *Scout) TopFeatures(n int) []string {
	imp := s.rf.Importance()
	names := s.fb.FeatureNames()
	idx := make([]int, len(imp))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		if imp[a] > imp[b] {
			return -1
		}
		if imp[b] > imp[a] {
			return 1
		}
		return a - b // total order: equally important features rank by slot
	})
	if n > len(idx) {
		n = len(idx)
	}
	out := make([]string, 0, n)
	for _, i := range idx[:n] {
		out = append(out, names[i])
	}
	return out
}
