package core

import (
	"fmt"
	"hash/maphash"
	"sync"

	"scouts/internal/incident"
	"scouts/internal/ml/cpd"
)

// The two answer paths that were hand-copied beside Scout.predict, and the
// sharded cache the memoised one filled, as they read before PR 25 made them
// callers of the one §5.3 pipeline: kept verbatim as the oracle
// pipeline_test.go compares the join against. What collides with production
// names carries an "old" prefix; the three edits the move forced are the
// Scout.detector field (gone: oldDetector reads the same value from the CPD+
// model's own parameters, which Train always set equal), cpd.Plus's old
// PredictVector (oldPredictVector below, over Parts), and the pooled vector's
// pointer form in oldPredictWithModel's random-forest tail.

// oldDetector is what the Scout.detector field held.
func oldDetector(s *Scout) cpd.Params {
	params, _ := s.cpdPlus.Parts()
	return params.Detector
}

// oldPredictVector is cpd.Plus.PredictVector as it read: its own nil-forest
// answer — (false, 0.75) where Predict falls back to the narrow rule — and
// its own explanation.
func oldPredictVector(c *cpd.Plus, x []float64) (bool, float64, string) {
	_, rf := c.Parts()
	if rf == nil {
		return false, 0.75, "no broad-incident model trained"
	}
	label, conf := rf.Predict(x)
	return label, conf, "cluster-level change-point model (cached vector)"
}

// oldPredictCached classifies an incident at creation time, reusing (and
// filling) a feature cache. The cache must belong to this Scout's
// (Config, Topology, Source) combination, and the monitoring registry must
// not have changed since the cached entries were computed — retraining
// replays satisfy both.
//
// Note the cache key is the incident ID and cached extraction uses the
// incident's full component list, so PredictCached reflects the
// steady-state information surface (as the training pipeline does).
func (s *Scout) oldPredictCached(in *incident.Incident, cache *oldFeatureCache) Prediction {
	e, ok := cache.get(in.ID)
	if !ok {
		ex := s.fb.Extract(in.Title, in.Body, in.Components)
		e = oldCacheEntry{ex: ex}
		if !ex.Excluded && !ex.Empty {
			e.x = s.fb.Featurize(ex, in.CreatedAt)
		}
		cache.put(in.ID, e)
	}
	if e.ex.Excluded {
		return Prediction{Verdict: VerdictExcluded, Confidence: 1, Model: "exclude-rule"}
	}
	if e.ex.Empty {
		return Prediction{Verdict: VerdictFallback, Model: "none"}
	}
	useCPD, pWrong := useCPDJoined(s.selector, in.Title, in.Body)
	if useCPD {
		var label bool
		var conf float64
		var why string
		if e.ex.Broad {
			// The entry is a private snapshot: publish the vector only
			// through the cache's locked setter (which keeps the first
			// stored vector as canonical), never by writing the shared
			// entry directly.
			vec := e.cpdX
			if vec == nil {
				vec = cpd.PlusParams{Datasets: s.fb.DatasetNames(), Detector: oldDetector(s)}.Featurize(s.fb.CPDInput(e.ex, in.CreatedAt))
				vec = cache.setCPD(in.ID, vec)
			}
			label, conf, why = oldPredictVector(s.cpdPlus, vec)
		} else {
			label, conf, why = s.cpdPlus.Predict(s.fb.CPDInput(e.ex, in.CreatedAt))
		}
		return Prediction{
			Verdict: verdictFor(label), Responsible: label, Confidence: conf,
			Model: "cpd+", Components: e.ex.All(),
			Text: fmt.Sprintf("model selector flagged this as new/rare (P(RF wrong)=%.2f); CPD+: %s", pWrong, why),
		}
	}
	return s.predictRF(e.x, &e.ex)
}

// oldPredictWithModel forces one model path ("rf" or "cpd+"), bypassing the
// model selector but keeping the exclusion and component gates. The Table 1
// comparison evaluates each model in isolation this way.
func (s *Scout) oldPredictWithModel(model, title, body string, mentioned []string, t float64) Prediction {
	ex := s.fb.Extract(title, body, mentioned)
	if ex.Excluded {
		return Prediction{Verdict: VerdictExcluded, Confidence: 1, Model: "exclude-rule"}
	}
	if ex.Empty {
		return Prediction{Verdict: VerdictFallback, Model: "none"}
	}
	if model == "cpd+" {
		h := s.sourceHealth(t)
		if p, bad := s.degradedPrediction(h, &ex); bad {
			return p
		}
		label, conf, why := s.cpdPlus.Predict(s.fb.CPDInput(ex, t))
		return Prediction{
			Verdict: verdictFor(label), Responsible: label, Confidence: conf,
			Model: "cpd+", Components: ex.All(), Text: why,
			Health: h, HasHealth: true,
		}
	}
	v := s.getVec()
	defer s.putVec(v)
	h := s.featurizeWithImputationInto(v, &memo{ex: ex}, t)
	if p, bad := s.degradedPrediction(h, &ex); bad {
		return p
	}
	p := s.predictRF(*v, &ex)
	p.Health, p.HasHealth = h, true
	return p
}

// oldFeatureCache memoizes per-incident extraction results, feature vectors
// and CPD+ vectors across retraining rounds. The retraining experiments
// (§7.3) rebuild the Scout dozens of times over overlapping windows of the
// same trace; featurization — not model fitting — dominates that cost, and
// it is a pure function of (incident, configuration, data source), so it
// is safe to reuse as long as those stay fixed.
//
// The cache is safe for concurrent use: it is sharded by incident ID so
// parallel featurization workers do not serialize on a single lock, and
// its accessors exchange entry *values*, never pointers into the shard
// maps — all mutation goes through the locked setters. A oldFeatureCache must
// only ever be used with one (Config, Topology, DataSource) combination;
// mixing layouts corrupts results.
type oldFeatureCache struct {
	shards [oldCacheShards]oldCacheShard
}

// oldCacheShards is a power of two comfortably above typical worker counts so
// shard collisions under parallel featurization stay rare.
const oldCacheShards = 32

var oldCacheHashSeed = maphash.MakeSeed()

type oldCacheShard struct {
	mu sync.RWMutex
	m  map[string]*oldCacheEntry
}

// oldCacheEntry is handled by value outside this file; the slices and the
// Extraction map it carries are treated as immutable once stored.
type oldCacheEntry struct {
	ex   Extraction
	x    []float64
	cpdX []float64 // nil until a CPD+ vector is first needed
}

// newOldFeatureCache creates an empty cache.
func newOldFeatureCache() *oldFeatureCache {
	c := &oldFeatureCache{}
	for i := range c.shards {
		c.shards[i].m = map[string]*oldCacheEntry{}
	}
	return c
}

func (c *oldFeatureCache) shard(id string) *oldCacheShard {
	return &c.shards[maphash.String(oldCacheHashSeed, id)&(oldCacheShards-1)]
}

// Len returns the number of cached incidents.
func (c *oldFeatureCache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// get returns a snapshot of the entry for id. The returned value shares
// its slices with the cache, so callers must not modify them — new state
// is published only through put and setCPD.
func (c *oldFeatureCache) get(id string) (oldCacheEntry, bool) {
	if c == nil {
		return oldCacheEntry{}, false
	}
	s := c.shard(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if e, ok := s.m[id]; ok {
		return *e, true
	}
	return oldCacheEntry{}, false
}

// put stores an entry for id. The first writer wins when two workers
// featurize the same incident concurrently: featurization is deterministic,
// so both candidates are identical and keeping the incumbent preserves any
// CPD+ vector another goroutine already attached to it.
func (c *oldFeatureCache) put(id string, e oldCacheEntry) {
	if c == nil {
		return
	}
	s := c.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.m[id]; exists {
		return
	}
	stored := e
	s.m[id] = &stored
}

// setCPD attaches a CPD+ vector to an existing entry and returns the
// canonical vector: the first one stored wins, so concurrent computers of
// the same (deterministic) vector converge on one slice.
func (c *oldFeatureCache) setCPD(id string, vec []float64) []float64 {
	if c == nil {
		return vec
	}
	s := c.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[id]
	if !ok {
		return vec
	}
	if e.cpdX == nil {
		e.cpdX = vec
	}
	return e.cpdX
}
