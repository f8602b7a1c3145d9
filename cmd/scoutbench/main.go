// Command scoutbench is the repository's benchmark: four closed-loop
// workloads against a real serving.Server and gateway.Gateway in one
// process, every answer verified, timings normalised to the host's
// speed. README.md beside this file says how to run and read it;
// BENCHMARK.json at the module root names what it must emit.
//
// Usage:
//
//	scoutbench [-seed 7]                         every workload, both passes, as a table
//	scoutbench --workload W --seed N --seconds S --trace 0|1   one run, result as the last line
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the driver reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are one run's arguments.
type options struct {
	workload  string
	seed      int64
	d         time.Duration
	trace     bool
	traceFile string
	// scratch is where a run keeps its store directories.
	scratch string
	sz      size
	out     io.Writer
}

func main() {
	workload := flag.String("workload", "all", "single, batch, fleet, retrain, or all")
	seed := flag.Int64("seed", 7, "orders the replayed requests")
	seconds := flag.Float64("seconds", 10, "measured time of a run")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics, from an untraced and a traced pass, instead of the end-to-end ones")
	traceFile := flag.String("trace-file", "scoutbench-trace.json", "where a traced run writes its spans")
	quick := flag.Bool("quick", false, "smoke-test sizes")
	flag.Parse()
	runtime.GOMAXPROCS(2)
	opt := options{
		workload: *workload, seed: *seed, d: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, traceFile: *traceFile, scratch: ".scoutbench", sz: fullSize, out: os.Stdout,
	}
	if *quick {
		opt.sz = quickSize
	}
	if err := run(opt, "BENCHMARK.json"); err != nil {
		fmt.Fprintln(os.Stderr, "scoutbench:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("operations failed")

// run is the command: one workload and pass with the driver's result
// line, or every workload and both passes as a table.
func run(opt options, manifestPath string) error {
	mf, err := readManifest(manifestPath)
	if err != nil {
		return err
	}
	if opt.workload != "all" {
		res, err := runOne(opt, mf)
		if err != nil {
			return err
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Fprintln(opt.out, string(line))
		if !res.Correct {
			return errIncorrect
		}
		return nil
	}
	correct := true
	for _, w := range mf.workloadNames() {
		for _, trace := range []bool{false, true} {
			o := opt
			o.workload, o.trace = w, trace
			res, err := runOne(o, mf)
			if err != nil {
				return err
			}
			correct = correct && res.Correct
		}
	}
	if !correct {
		return errIncorrect
	}
	return nil
}

// runOne sets up, measures one workload and prints its metrics by name
// and unit. The emitted names and units must be exactly the manifest's.
func runOne(opt options, mf *manifest) (*result, error) {
	if !slices.Contains(workloadNames, opt.workload) || !slices.Contains(mf.workloadNames(), opt.workload) {
		return nil, fmt.Errorf("unknown workload %q", opt.workload)
	}
	res, err := measureOne(opt)
	if err != nil {
		return nil, err
	}
	names := sortedKeys(res.Metrics)
	for _, n := range names {
		fmt.Fprintf(opt.out, "%-8s %-32s %14.6g %s\n", opt.workload, n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(opt.out, "%-8s attempted %d, failed %d\n", opt.workload, res.Attempted, res.Failed)
	return res, mf.check(res.Metrics, opt.trace)
}

func measureOne(opt options) (*result, error) {
	root, err := scratchDir(opt.scratch)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	cl := newClient()
	defer cl.close()

	// Set-up, repeated: the shared part, then the workload's own boot.
	rep := &report{meter: &meter{}}
	var tgt *target
	var items []item
	for i := 0; i < opt.sz.setupReps; i++ {
		if tgt != nil {
			tgt.close()
		}
		t0 := time.Now()
		w, err := buildWorld(opt.sz, storeDir(root, i))
		if err != nil {
			return nil, err
		}
		shared := time.Since(t0)
		// The oracle's answers are the harness's work, not set-up.
		if items, err = corpus(w, opt.seed); err != nil {
			return nil, err
		}
		t1 := time.Now()
		if tgt, err = boot(opt.workload, opt.sz, w, items, cl); err != nil {
			return nil, err
		}
		rep.setupS = append(rep.setupS, (shared + time.Since(t1)).Seconds())
		rep.trainS = append(rep.trainS, w.trainS)
	}
	defer tgt.close()
	if err := tgt.prepare(opt.workload, cl); err != nil {
		return nil, err
	}
	rep.check = newChecker(items)

	d := opt.d
	var live float64
	if opt.trace {
		d = time.Duration(untracedShare * float64(opt.d))
		live = heapLiveMB()
	}
	before := readRuntime()
	if err := tgt.measure(opt.workload, cl, d, rep); err != nil {
		return nil, err
	}
	gc := readRuntime().sub(before)
	res := &result{
		Correct:   rep.check.failed == 0,
		Attempted: rep.check.attempted,
		Failed:    rep.check.failed,
	}
	if rep.check.failed > 0 {
		fmt.Fprintln(os.Stderr, "scoutbench: first failure:", rep.check.firstFailure)
	}
	if !opt.trace {
		res.Metrics = endToEnd(rep)
		return res, nil
	}

	l, err := newLayers(tgt, cl)
	if err != nil {
		return nil, err
	}
	defer l.null.close()
	if err := l.tracedPass(opt.workload, time.Duration(tracedShare*float64(opt.d))); err != nil {
		return nil, err
	}
	if res.Metrics, err = layerMetrics(rep, l, gc, live, root); err != nil {
		return nil, err
	}
	return res, l.tr.write(opt.traceFile)
}

// endToEnd is the seven metrics a user of the system would see. The
// timings are normalised; set-up is not, because the reference kernel
// sampled around a training run that saturates both cores does not track
// it (NOISE.md).
func endToEnd(rep *report) map[string]metric {
	t := rep.meter.timings(true)
	preds, allocs := rep.meter.totals()
	return map[string]metric{
		"setup_s":         {median(rep.setupS), "s"},
		"throughput_pps":  {t.pps, "1/s"},
		"latency_p50_ms":  {t.p50, "ms"},
		"latency_p95_ms":  {t.p95, "ms"},
		"cpu_ms_per_pred": {t.cpuMs, "ms"},
		"allocs_per_pred": {float64(allocs) / float64(preds), "count"},
		"quality_f1":      {rep.check.conf.F1(), "ratio"},
	}
}

// manifest is the part of BENCHMARK.json the program holds itself to.
type manifest struct {
	Workloads []struct{ Name string }
	EndToEnd  []manifestMetric `json:"end_to_end"`
	PerLayer  []manifestMetric `json:"per_layer"`
}

type manifestMetric struct{ Name, Unit string }

func readManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("run from the module root: %w", err)
	}
	var mf manifest
	if err := json.Unmarshal(raw, &mf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &mf, nil
}

func (mf *manifest) workloadNames() []string {
	var out []string
	for _, w := range mf.Workloads {
		out = append(out, w.Name)
	}
	return out
}

// check fails unless got holds each of the pass's manifest metrics, with
// its unit and a finite value, and nothing else.
func (mf *manifest) check(got map[string]metric, trace bool) error {
	want := mf.EndToEnd
	if trace {
		want = mf.PerLayer
	}
	var problems []string
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			problems = append(problems, m.Name+" not emitted")
		case g.Unit != m.Unit:
			problems = append(problems, fmt.Sprintf("%s emitted in %s, declared in %s", m.Name, g.Unit, m.Unit))
		case g.Value != g.Value || g.Value-g.Value != 0:
			problems = append(problems, m.Name+" is not finite")
		}
	}
	if len(got) != len(want) {
		for _, n := range sortedKeys(got) {
			if !slices.ContainsFunc(want, func(m manifestMetric) bool { return m.Name == n }) {
				problems = append(problems, n+" emitted but not declared")
			}
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("metrics differ from BENCHMARK.json: %v", problems)
	}
	return nil
}
