package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"scouts/internal/core"
	"scouts/internal/gateway"
	"scouts/internal/ml/forest"
	"scouts/internal/ml/mlcore"
	"scouts/internal/serving"
	"scouts/internal/telemetry"
)

// The share of --seconds a traced run spends on each pass.
const (
	untracedShare = 0.4
	tracedShare   = 0.6
)

// timed repeats f and returns the median time of one call, in ms, and
// the allocations per call. inner > 1 says f itself loops inner times.
func timed(reps, inner int, f func()) (medMs, allocs float64) {
	f() // warm: first calls pay for lazy initialisation
	ds := make([]float64, reps)
	a0 := heapAllocs()
	for i := range ds {
		t0 := time.Now()
		f()
		ds[i] = ms(time.Since(t0)) / float64(inner)
	}
	return median(ds), float64(heapAllocs()-a0) / float64(reps*inner)
}

// runtimeStats reads the collector's counters around the untraced pass.
type runtimeStats struct{ cycles, bytes uint64 }

func (r runtimeStats) sub(o runtimeStats) runtimeStats {
	return runtimeStats{r.cycles - o.cycles, r.bytes - o.bytes}
}

var runtimeSamples = []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}

func readRuntime() runtimeStats {
	metrics.Read(runtimeSamples)
	return runtimeStats{runtimeSamples[0].Value.Uint64(), runtimeSamples[1].Value.Uint64()}
}

// heapLiveMB is the heap that survives a collection.
func heapLiveMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// families adds up every series of each metric family in a registry's
// Prometheus exposition, the only read access the registries give.
func families(reg *telemetry.Registry) map[string]float64 {
	sums := map[string]float64{}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return sums
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if i := strings.IndexByte(line, '{'); i >= 0 {
			name, value = line[:i], line[strings.LastIndexByte(line, '}')+1:]
		} else if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(value), 64); err == nil {
			sums[name] += v
		}
	}
	return sums
}

// tracedPass replays the workload's requests for d, recording each one's
// span tree.
func (l *layers) tracedPass(workload string, d time.Duration) error {
	t := l.t
	if workload == "retrain" {
		// A cycle's requests are leaf spans, because their nesting is
		// observed; a tenth of the pass, before the first swap, goes to
		// the stage costs of the requests the cycles then serve.
		if err := l.tracedPass("single", d/10); err != nil {
			return err
		}
		traced := &report{check: newChecker(t.items), meter: &meter{}}
		if err := t.retrain(l.cl, d*9/10, traced, l.tr); err != nil {
			return err
		}
		if traced.check.failed > 0 {
			return fmt.Errorf("traced pass: %s", traced.check.firstFailure)
		}
		return nil
	}
	begin := time.Now()
	for i := 0; time.Since(begin) < d; i++ {
		var err error
		if workload == "batch" {
			b := i % len(t.batches)
			items := make([]item, batchSize)
			for k := range items {
				items[k] = t.items[(b*batchSize+k)%len(t.items)]
			}
			err = l.traceRequest(t.rep.url+"/v1/predict:batch", "/v1/predict:batch", t.batches[b], items)
		} else {
			k := i % len(t.items)
			err = l.traceRequest(t.url, "/v1/predict", t.items[k].body, t.items[k:k+1])
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// layerMetrics runs the traced run's passes and reduces them to the
// per-layer metrics. The untraced pass has already filled rep.
func layerMetrics(rep *report, l *layers, gc runtimeStats, liveBefore float64, root string) (map[string]metric, error) {
	t, w, sz := l.t, l.t.w, l.t.sz
	out := map[string]metric{}
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }

	// --- the untraced pass: raw values, runtime, served-answer shares ---
	raw := rep.meter.timings(false)
	preds, _ := rep.meter.totals()
	cal, calN := rep.meter.calMeanMs()
	put("harness.cal_ms", cal, "ms")
	put("harness.cal_samples", float64(calN), "count")
	put("raw.throughput_pps", raw.pps, "1/s")
	put("raw.latency_p50_ms", raw.p50, "ms")
	put("raw.latency_p95_ms", raw.p95, "ms")
	put("raw.latency_p99_ms", raw.p99, "ms")
	put("raw.cpu_ms_per_pred", raw.cpuMs, "ms")
	put("runtime.gc_per_kpred", 1000*float64(gc.cycles)/float64(preds), "count")
	put("runtime.bytes_per_pred", float64(gc.bytes)/float64(preds), "B")
	put("runtime.heap_live_mb", max(liveBefore, heapLiveMB()), "MB")
	var served int
	for _, n := range rep.check.models {
		served += n
	}
	share := func(n int) float64 { return float64(n) / float64(max(served, 1)) }
	put("core.model_share_rf", share(rep.check.models["rf"]), "ratio")
	put("core.model_share_cpd", share(rep.check.models["cpd+"]), "ratio")
	put("core.model_share_gate", share(rep.check.models["exclude-rule"]), "ratio")
	put("core.fallback_share", share(rep.check.verdict[string(core.VerdictFallback)]), "ratio")

	// --- the traced pass: stage costs from the spans ---
	by := l.tr.byName()
	predict, featurize := by.of("core.predict"), by.of("core.featurize")
	httpMs, handlerMs := by.of("http").medianMs(), by.of("serving.handler").medianMs()
	put("harness.trace_overhead_share", httpMs/raw.p50-1, "ratio")
	put("net.hop_ms", by.of("net").medianMs(), "ms")
	put("serving.handler_ms", handlerMs, "ms")
	put("serving.handler_allocs", by.of("serving.handler").allocsPerItem(), "count")
	put("serving.decode_ms", by.of("serving.decode").medianMs(), "ms")
	put("serving.encode_ms", by.of("serving.encode").medianMs(), "ms")
	put("serving.self_ms", handlerMs-by.of("serving.decode").medianMs()-predict.medianMs()-by.of("serving.encode").medianMs(), "ms")
	put("core.predict_ms", predict.perItemMs(), "ms")
	put("core.predict_allocs", predict.allocsPerItem(), "count")
	put("core.extract_ms", by.of("core.extract").perItemMs(), "ms")
	put("core.featurize_ms", featurize.perItemMs(), "ms")
	put("core.featurize_allocs", featurize.allocsPerItem(), "count")
	// What a prediction costs beyond its four named parts, per incident;
	// parts that only RF-bound incidents run are weighted by their share.
	rfShare := float64(featurize.items) / float64(max(predict.items, 1))
	put("core.self_ms", predict.perItemMs()-by.of("core.extract").perItemMs()-
		rfShare*(featurize.perItemMs()+by.of("forest.predict").perItemMs()+by.of("forest.explain").perItemMs()), "ms")
	// A monitoring.calls span's items are the calls one featurize span made.
	mon := by.of("monitoring.calls")
	put("monitoring.calls_per_pred", float64(mon.items)/float64(max(featurize.items, 1)), "count")
	put("monitoring.busy_ms_per_pred", mon.sumMs()/float64(max(featurize.items, 1)), "ms")
	nsPerCall := 1e6 * mon.perItemMs()
	put("monitoring.ns_per_call", nsPerCall, "ns")
	worst := 1.0
	cov := l.tr.coverage()
	for _, level := range sortedKeys(cov) {
		if c := cov[level]; math.Abs(c-1) > math.Abs(worst-1) {
			worst = c
		}
	}
	put("trace.coverage", worst, "ratio")
	if worst < 0.8 || worst > 1.2 {
		fmt.Fprintf(os.Stderr, "scoutbench: trace.coverage %.2f is outside 0.8–1.2: this run's stage budget does not add up (a busy host?)\n", worst)
	}

	// gateway: the hop is the fleet round trip minus the replica's own,
	// on the same inputs; counters come from the gateway's registry.
	var hop, hedges, retries, gwShed float64
	if t.fleet != nil {
		hop = httpMs - by.of("gateway.upstream").medianMs()
		fam := families(t.fleet.gw.Metrics())
		if n := fam["scout_gw_http_requests_total"]; n > 0 {
			hedges = 1000 * fam["scout_gw_hedges_total"] / n
			retries = 1000 * fam["scout_gw_retries_total"] / n
			gwShed = fam["scout_gw_requests_shed_total"] / n
		}
	}
	put("gateway.hop_ms", hop, "ms")
	put("gateway.hedges_per_kreq", hedges, "count")
	put("gateway.retries_per_kreq", retries, "count")
	put("gateway.shed_share", gwShed, "ratio")
	srv := l.server()
	shed := 0.0
	if fam := families(srv.Metrics()); fam["scout_http_requests_total"] > 0 {
		shed = fam["scout_http_requests_shed_total"] / fam["scout_http_requests_total"]
	}
	put("serving.shed_share", shed, "ratio")

	// retrain: the cycle's own calls, from the untraced pass.
	rs := &rep.retrain
	put("retrain.cycles", float64(rs.cycles), "count")
	put("retrain.cycle_s", medianOr0(rs.cycleS), "s")
	put("retrain.train_s", medianOr0(rs.trainS), "s")
	put("retrain.publish_ms", medianOr0(rs.publishMs), "ms")
	put("retrain.reload_ms", medianOr0(rs.reloadMs), "ms")
	put("retrain.first_predict_ms", medianOr0(rs.first), "ms")

	// --- micro-measurements, the same on every workload ---
	reps := sz.layerReps
	first := t.items[0]
	firstAnswer := serve(l.handler, "/v1/predict", first.body).Body.Bytes()
	l.null.answer.Store(&firstAnswer)
	rtt, rttAllocs := timed(10*reps, 1, func() { _, _, _, _ = l.cl.post(l.null.url, first.body) })
	put("harness.null_rtt_ms", rtt, "ms")
	put("harness.null_allocs_per_req", rttAllocs, "count")

	var err error
	fail := func(e error) {
		if err == nil && e != nil {
			err = e
		}
	}
	v, _ := timed(reps, 1, func() { fail(srv.Reload()) })
	put("serving.reload_ms", v, "ms")
	store := serving.NewStore()
	store.Put(team, w.pack)
	saveDir := filepath.Join(root, "layer-store")
	v, _ = timed(reps, 1, func() { fail(serving.SaveStore(store, saveDir)) })
	put("serving.savestore_ms", v, "ms")
	v, _ = timed(reps, 1, func() { _, _, e := serving.LoadStore(saveDir); fail(e) })
	put("serving.loadstore_ms", v, "ms")

	put("core.train_s", median(rep.trainS), "s")
	v, _ = timed(reps, 1, func() { _, e := w.scout.SnapshotPack(); fail(e) })
	put("core.pack_ms", v, "ms")
	put("core.pack_bytes", float64(len(w.pack)), "B")
	topo, src := w.gen.Topology(), w.gen.Telemetry()
	v, _ = timed(reps, 1, func() { _, e := core.Restore(w.pack, topo, src); fail(e) })
	put("core.restore_pack_ms", v, "ms")
	snap, e := w.scout.Snapshot()
	fail(e)
	v, _ = timed(max(reps/10, 3), 1, func() { _, e := core.Restore(snap, topo, src); fail(e) })
	put("core.restore_json_ms", v, "ms")
	if err != nil {
		return nil, err
	}

	// Per-incident kernels over the corpus.
	sc, fb := l.scout, l.scout.Builder()
	var cpdMs []float64
	var xs [][]float64
	for i := range t.items {
		it := &t.items[i]
		if !it.want.Usable() || it.want.Model == "exclude-rule" {
			continue
		}
		r := &it.req
		if len(cpdMs) < reps {
			t0 := time.Now()
			sc.PredictWithModel("cpd+", r.Title, r.Body, r.Components, r.Time)
			cpdMs = append(cpdMs, ms(time.Since(t0)))
		}
		if len(xs) < 4*batchSize {
			xs = append(xs, fb.Featurize(fb.Extract(r.Title, r.Body, r.Components), r.Time))
		}
	}
	put("core.cpd_path_ms", medianOr0(cpdMs), "ms")
	reqs := batchRequests(t.items[:min(batchSize, len(t.items))])
	v, _ = timed(max(reps/5, 3), len(reqs), func() { sc.PredictBatch(reqs) })
	put("core.predict_batch_ms_per_item", v, "ms")

	rf := sc.Forest()
	v, _ = timed(reps, len(xs), func() {
		for _, x := range xs {
			rf.PredictProb(x)
		}
	})
	put("forest.predict_ns", v*1e6, "ns")
	probs := make([]float64, batchSize)
	v, _ = timed(reps, len(xs), func() {
		for lo := 0; lo+batchSize <= len(xs); lo += batchSize {
			rf.PredictProbBatch(xs[lo:lo+batchSize], probs)
		}
	})
	put("forest.batch_ns_per_item", v*1e6, "ns")
	v, _ = timed(reps, len(xs), func() {
		for _, x := range xs {
			rf.Explain(x)
		}
	})
	put("forest.explain_us", v*1e3, "us")
	put("forest.nodes", float64(rf.NumNodes()), "count")
	put("forest.trees", float64(rf.NumTrees()), "count")
	// forest.Train on the lab matrix: the train split, featurized once.
	d := mlcore.NewDataset(fb.FeatureNames())
	for _, in := range w.train {
		ex := fb.Extract(in.Title, in.Body, in.Components)
		if ex.Excluded || ex.Empty {
			continue
		}
		d.MustAdd(mlcore.Sample{X: fb.Featurize(ex, in.CreatedAt), Y: in.OwnerLabel == team, Time: in.CreatedAt, ID: in.ID})
	}
	v, _ = timed(3, 1, func() {
		_, e := forest.Train(d, forest.Params{NumTrees: 100, MaxDepth: 14, Seed: worldSeed + 2})
		fail(e)
	})
	put("forest.train_s", v/1000, "s")

	// The breaker's share of a monitoring call: the same featurization
	// over the bare simulator.
	bareSrc, bare := decorate(src)
	bareScout, e := core.Restore(w.pack, topo, bareSrc)
	fail(e)
	if err != nil {
		return nil, err
	}
	bfb := bareScout.Builder()
	x := make([]float64, len(bfb.FeatureNames()))
	for i := range t.items[:min(len(t.items), 4*batchSize)] {
		r := &t.items[i].req
		bfb.FeaturizeInto(x, bfb.Extract(r.Title, r.Body, r.Components), r.Time)
	}
	breaker := 0.0
	if bare.calls > 0 && nsPerCall > 0 {
		breaker = nsPerCall - float64(bare.busy.Nanoseconds())/float64(bare.calls)
	}
	put("faults.breaker_ns_per_call", breaker, "ns")

	// The gateway handler alone, over a canned upstream.
	gw, e := gateway.New(gateway.Config{
		Replicas: []gateway.ReplicaConfig{{Name: "a", Team: team, URL: "http://a.invalid"}, {Name: "b", Team: team, URL: "http://b.invalid"}, {Name: "c", Team: team, URL: "http://c.invalid"}},
		Client:   &http.Client{Transport: canned(firstAnswer)},
	})
	if e != nil {
		return nil, e
	}
	gh := gw.Handler()
	v, a := timed(10*reps, 1, func() { serve(gh, "/v1/predict?team="+team, first.body) })
	put("gateway.handler_ms", v, "ms")
	put("gateway.allocs_per_req", a, "count")

	// The instrument middleware's own cost.
	hist := telemetry.NewRegistry().Histogram("scoutbench_probe_seconds", "probe", nil)
	v, _ = timed(reps, 1000, func() {
		for i := 0; i < 1000; i++ {
			hist.Observe(0.0007)
		}
	})
	put("telemetry.observe_ns", v*1e6, "ns")
	v, _ = timed(reps, 1, func() { fail(srv.Metrics().WritePrometheus(io.Discard)) })
	put("telemetry.scrape_ms", v, "ms")

	v, _ = timed(3, 1, func() { w.scout.EvaluateWorkers(w.test, 0) })
	put("evaluate.offline_pps", float64(len(w.test))/(v/1000), "1/s")
	return out, err
}

// server is the replica the layer measurements call directly.
func (l *layers) server() *serving.Server {
	if l.t.fleet != nil {
		return l.t.fleet.replicas[0].srv
	}
	return l.t.rep.srv
}

// canned is an upstream that answers every request with one body.
type canned []byte

func (c canned) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		_, _ = io.Copy(io.Discard, r.Body) // the gateway's own buffered bytes
		_ = r.Body.Close()
	}
	return &http.Response{
		StatusCode: http.StatusOK, Status: "200 OK", Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header:        http.Header{"Content-Type": {"application/json"}},
		Body:          io.NopCloser(bytes.NewReader(c)),
		ContentLength: int64(len(c)), Request: r,
	}, nil
}

func medianOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}
