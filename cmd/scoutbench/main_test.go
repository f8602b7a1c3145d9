package main

import (
	"io"
	"math"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"scouts/internal/core"
	"scouts/internal/faults"
	"scouts/internal/monitoring"
)

const manifestPath = "../../BENCHMARK.json"

// TestQuickSmoke runs every workload through both passes at smoke-test
// sizes: every manifest metric emitted once with a finite value, no
// failed operation, and a traced pass whose parts add up.
func TestQuickSmoke(t *testing.T) {
	mf, err := readManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := mf.workloadNames(); !reflect.DeepEqual(got, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, program runs %v", got, workloadNames)
	}
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			opt := options{
				workload: w, seed: 7, d: 600 * time.Millisecond, trace: trace,
				traceFile: filepath.Join(t.TempDir(), "trace.json"), scratch: t.TempDir(),
				sz: quickSize, out: io.Discard,
			}
			res, err := runOne(opt, mf) // checks names, units and finiteness against the manifest
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", w, trace, res.Attempted, res.Failed)
			}
			if !trace {
				if f1 := res.Metrics["quality_f1"].Value; f1 <= 0 || f1 >= 1 {
					t.Errorf("%s: quality_f1 = %v, want a real score below 1", w, f1)
				}
				continue
			}
			// A benchmark run must reconcile within 0.8–1.2 (README.md). A
			// test shares its cores with other packages' tests, and a busy
			// core delays the cross-goroutine wake-ups of a round trip but
			// not the in-process calls timed under it (0.6 beside two CPU
			// hogs), so here the window only catches parts that do not add
			// up at all.
			c := res.Metrics["trace.coverage"].Value
			t.Logf("%s: trace.coverage %.3f", w, c)
			if c < 0.4 || c > 2.5 {
				t.Errorf("%s: trace.coverage = %.3f, the traced parts do not add up", w, c)
			}
		}
	}
}

func TestManifestCheckRejectsMismatch(t *testing.T) {
	mf := &manifest{EndToEnd: []manifestMetric{{"a", "ms"}, {"b", "s"}}}
	ok := map[string]metric{"a": {1, "ms"}, "b": {2, "s"}}
	if err := mf.check(ok, false); err != nil {
		t.Fatalf("matching metrics rejected: %v", err)
	}
	for name, bad := range map[string]map[string]metric{
		"missing":    {"a": {1, "ms"}},
		"extra":      {"a": {1, "ms"}, "b": {2, "s"}, "c": {3, "s"}},
		"wrong unit": {"a": {1, "s"}, "b": {2, "s"}},
		"not finite": {"a": {math.NaN(), "ms"}, "b": {2, "s"}},
		"infinite":   {"a": {math.Inf(1), "ms"}, "b": {2, "s"}},
	} {
		if mf.check(bad, false) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestDecoratorIsTransparent: the traced pass's DataSource decorator must
// forward the optional StatsSource and HealthReporter capabilities, or
// featurization silently changes path. Predictions and their DataHealth
// are bit-identical with and without it.
func TestDecoratorIsTransparent(t *testing.T) {
	w, err := buildWorld(quickSize, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	topo, tel := w.gen.Topology(), w.gen.Telemetry()

	bare, _ := decorate(tel)
	if _, ok := bare.(monitoring.StatsSource); !ok {
		t.Error("decorated simulator lost StatsSource")
	}
	if monitoring.HealthReporterOf(bare) != nil {
		t.Error("decorated simulator gained a HealthReporter it does not have")
	}
	wrapped, calls := decorate(faults.NewBreaker(tel, faults.BreakerParams{}))
	if _, ok := wrapped.(monitoring.StatsSource); !ok {
		t.Error("decorated breaker lost StatsSource")
	}
	if monitoring.HealthReporterOf(wrapped) == nil {
		t.Error("decorated breaker lost HealthReporter")
	}

	policy := core.DegradationPolicy{MinCoverage: minCoverage}
	plain, err := core.Restore(w.pack, topo, faults.NewBreaker(tel, faults.BreakerParams{}))
	if err != nil {
		t.Fatal(err)
	}
	plain.SetDegradationPolicy(policy)
	dec, err := core.Restore(w.pack, topo, wrapped)
	if err != nil {
		t.Fatal(err)
	}
	dec.SetDegradationPolicy(policy)
	for _, in := range w.test {
		a, b := plain.PredictIncident(in), dec.PredictIncident(in)
		if math.Float64bits(a.Confidence) != math.Float64bits(b.Confidence) || !reflect.DeepEqual(a, b) {
			t.Fatalf("incident %s: %+v without the decorator, %+v with it", in.ID, a, b)
		}
	}
	if calls.calls == 0 {
		t.Error("decorator saw no monitoring calls")
	}
}
