package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"time"

	"scouts/internal/core"
	"scouts/internal/metrics"
	"scouts/internal/serving"
)

const (
	batchSize = 32
	// A retrain cycle serves the whole held-out corpus against the fresh
	// model: retrainBatches batch requests, the rest one by one.
	retrainBatches = 4
	// Quality on retrain is taken over the first f1Cycles models, which
	// every run completes, so it does not depend on how many cycles the
	// host's speed allowed.
	f1Cycles = 4
)

var workloadNames = []string{"single", "batch", "fleet", "retrain"}

// answer is the part of a PredictResponse the harness checks.
type answer struct {
	Verdict    string  `json:"verdict"`
	Confidence float64 `json:"confidence"`
	Model      string  `json:"model"`
}

type batchAnswer struct {
	Results []struct {
		Prediction *answer `json:"prediction"`
		Error      string  `json:"error"`
	} `json:"results"`
}

// checker verifies every answer against the oracle and keeps the
// workload's operation counts and served-verdict tallies.
type checker struct {
	items []item
	// want overrides items[i].want while a retrained model is live.
	want []core.Prediction

	attempted, failed int
	firstFailure      string

	// scoring is off outside the stretch quality is defined over.
	scoring bool
	scored  []bool
	conf    metrics.Confusion
	models  map[string]int
	verdict map[string]int
}

func newChecker(items []item) *checker {
	return &checker{
		items: items, scoring: true, scored: make([]bool, len(items)),
		models: map[string]int{}, verdict: map[string]int{},
	}
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if c.firstFailure == "" {
		c.firstFailure = fmt.Sprintf(format, args...)
	}
}

func (c *checker) expected(i int) core.Prediction {
	if c.want != nil {
		return c.want[i]
	}
	return c.items[i].want
}

// matches checks one served answer for item i and tallies it.
func (c *checker) matches(i int, a *answer) bool {
	want := c.expected(i)
	if a.Verdict != string(want.Verdict) || math.Float64bits(a.Confidence) != math.Float64bits(want.Confidence) {
		return false
	}
	c.models[a.Model]++
	c.verdict[a.Verdict]++
	if c.scoring && !c.scored[i] {
		c.scored[i] = true
		if want.Usable() { // fallbacks are skipped, as Scout.Evaluate skips them
			c.conf.Add(want.Responsible, c.items[i].truth)
		}
	}
	return true
}

// transport checks the part every operation shares.
func (c *checker) transport(what string, status int, err error) bool {
	c.attempted++
	if err != nil {
		c.fail("%s: %v", what, err)
		return false
	}
	if status != http.StatusOK {
		c.fail("%s: HTTP %d", what, status)
		return false
	}
	return true
}

// single verifies the answer to item i; exact, when set, is the body a
// direct replica gave, which a gateway must relay byte for byte.
func (c *checker) single(i int, status int, body []byte, err error, exact []byte) bool {
	if !c.transport("predict", status, err) {
		return false
	}
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		c.fail("predict: decoding answer: %v", err)
		return false
	}
	if !c.matches(i, &a) {
		c.fail("predict: item %d answered %s/%v, direct Predict says %s/%v", i, a.Verdict, a.Confidence, c.expected(i).Verdict, c.expected(i).Confidence)
		return false
	}
	if exact != nil && !bytes.Equal(body, exact) {
		c.fail("predict: item %d: gateway answer differs from the direct replica's", i)
		return false
	}
	return true
}

// batch verifies the answer to the batch holding items lo, lo+1, ...
func (c *checker) batch(lo, n int, status int, body []byte, err error) bool {
	if !c.transport("predict:batch", status, err) {
		return false
	}
	var ba batchAnswer
	if err := json.Unmarshal(body, &ba); err != nil {
		c.fail("predict:batch: decoding answer: %v", err)
		return false
	}
	if len(ba.Results) != n {
		c.fail("predict:batch: %d results for %d items", len(ba.Results), n)
		return false
	}
	for k, r := range ba.Results {
		i := (lo + k) % len(c.items)
		if r.Prediction == nil || !c.matches(i, r.Prediction) {
			c.fail("predict:batch: item %d differs from direct Predict (%s)", i, r.Error)
			return false
		}
	}
	return true
}

// report is what one run of one workload measured.
type report struct {
	check   *checker
	meter   *meter
	setupS  []float64 // one per set-up repetition
	trainS  []float64
	retrain retrainStats
}

type retrainStats struct {
	cycles                                     int
	cycleS, trainS, publishMs, reloadMs, first []float64 // raw, one per cycle
}

// target is a booted system under test.
type target struct {
	sz      size
	w       *world
	items   []item
	url     string // where predictions go
	rep     *replica
	fleet   *fleet
	direct  [][]byte // fleet: the direct replica's answer per item
	batches [][]byte
	closers []func()
}

func (t *target) close() {
	for i := len(t.closers) - 1; i >= 0; i-- {
		t.closers[i]()
	}
}

// boot is the workload's own part of set-up: restore from the published
// pack, listen, and get a first verified 200.
func boot(workload string, sz size, w *world, items []item, cl *client) (*target, error) {
	t := &target{sz: sz, w: w, items: items}
	var err error
	if workload == "fleet" {
		if t.fleet, err = bootFleet(sz, w.dir); err != nil {
			return nil, err
		}
		t.closers = append(t.closers, t.fleet.close)
		t.url = t.fleet.url + "/v1/predict?team=" + team
	} else {
		if t.rep, err = bootReplica(sz, w.dir, "scoutd"); err != nil {
			return nil, err
		}
		t.closers = append(t.closers, t.rep.close)
		t.url = t.rep.url + "/v1/predict"
	}
	first := newChecker(items)
	status, body, _, err := cl.post(t.url, items[0].body)
	if !first.single(0, status, body, err, nil) {
		t.close()
		return nil, fmt.Errorf("first request: %s", first.firstFailure)
	}
	return t, nil
}

// drive runs next in a closed loop for d of counted time, in slices.
func drive(m *meter, d time.Duration, next func() (preds int, lat time.Duration)) {
	var done time.Duration
	for done < d {
		want := min(sliceFor, d-done)
		m.begin()
		for m.elapsed() < want {
			m.tick()
			if preds, lat := next(); preds > 0 {
				m.request(lat, preds)
			}
		}
		m.end()
		done += m.cur.wall
	}
}

// requester returns the closed loop's step for a request workload.
func (t *target) requester(workload string, cl *client, ck *checker) func() (int, time.Duration) {
	i := 0
	if workload == "batch" {
		url := t.rep.url + "/v1/predict:batch"
		return func() (int, time.Duration) {
			b := i % len(t.batches)
			i++
			status, body, lat, err := cl.post(url, t.batches[b])
			if !ck.batch(b*batchSize, batchSize, status, body, err) {
				return 0, 0
			}
			return batchSize, lat
		}
	}
	return func() (int, time.Duration) {
		k := i % len(t.items)
		i++
		status, body, lat, err := cl.post(t.url, t.items[k].body)
		var exact []byte
		if t.direct != nil {
			exact = t.direct[k]
		}
		if !ck.single(k, status, body, err, exact) {
			return 0, 0
		}
		return 1, lat
	}
}

// prepare finishes what the measured loop needs beyond boot. It is not
// part of set-up time: it is the harness's oracle work.
func (t *target) prepare(workload string, cl *client) error {
	var err error
	switch workload {
	case "batch":
		t.batches, err = batchBodies(t.items, batchSize)
	case "fleet":
		// What a direct replica answers, byte for byte.
		ck := newChecker(t.items)
		url := t.fleet.replicas[0].url + "/v1/predict"
		for i := range t.items {
			status, body, _, perr := cl.post(url, t.items[i].body)
			if !ck.single(i, status, body, perr, nil) {
				return fmt.Errorf("direct replica: %s", ck.firstFailure)
			}
			t.direct = append(t.direct, bytes.Clone(body))
		}
	}
	return err
}

// measure runs the workload's measured phase for d.
func (t *target) measure(workload string, cl *client, d time.Duration, rep *report) error {
	ck, m := rep.check, rep.meter
	if workload == "retrain" {
		return t.retrain(cl, d, rep, nil)
	}
	step := t.requester(workload, cl, ck)
	warm := &meter{}
	drive(warm, t.sz.warmup, step) // discarded
	ck.attempted, ck.failed = 0, 0
	drive(m, d, step)
	return nil
}

// retrain runs whole train → publish → reload → serve cycles until d of
// counted time has passed. With a tracer, each cycle's stages are spans;
// here the nesting is observed, because the harness makes the calls.
func (t *target) retrain(cl *client, d time.Duration, rep *report, tr *tracer) error {
	ck, m, w := rep.check, rep.meter, t.w
	st := &rep.retrain
	reloadURL := t.rep.url + "/v1/reload"
	batchURL := t.rep.url + "/v1/predict:batch"
	var err error
	batched := min(retrainBatches, len(t.items)/batchSize) * batchSize
	if t.batches, err = batchBodies(t.items[:batched], batchSize); err != nil {
		return err
	}
	ck.want = make([]core.Prediction, len(t.items))
	var done time.Duration
	for cycle := 0; done < d; cycle++ {
		ck.scoring = cycle < f1Cycles
		clear(ck.scored)
		root := tr.start(nil, "retrain.cycle", len(t.items))
		m.begin()

		// Train on the newest window of the train split. The window is
		// the same every cycle — between windows training time differs by
		// 40 %, and a run's cycle count would then decide its result —
		// but the seed moves, so each cycle swaps in a different model
		// and a swap that did not take would fail verification.
		ins := w.train[max(0, len(w.train)-t.sz.window):]
		opts := w.trainOptions(ins)
		opts.Seed += int64(cycle)
		sp := tr.start(root, "core.train", len(ins))
		t0 := time.Now()
		sc, err := core.Train(opts)
		trainS := time.Since(t0).Seconds()
		tr.finish(sp)
		if err != nil {
			return fmt.Errorf("retrain cycle %d: %w", cycle, err)
		}
		m.tick()

		// Publish as an offline trainer with a two-version retention
		// would: load the store directory, add the version, save.
		sp = tr.start(root, "retrain.publish", 0)
		t0 = time.Now()
		if err := prune(w.dir, serving.DefaultEagerVersions); err != nil {
			return err
		}
		store, _, err := serving.LoadStore(w.dir)
		if err != nil {
			return err
		}
		if _, err := publish(sc, store, w.dir); err != nil {
			return err
		}
		publishMs := ms(time.Since(t0))
		tr.finish(sp)
		m.tick()

		// Swap the live server to it.
		sp = tr.start(root, "serving.reload", 0)
		status, _, reloadLat, err := cl.post(reloadURL, nil)
		tr.finish(sp)
		if !ck.transport("reload", status, err) {
			return fmt.Errorf("retrain cycle %d: %s", cycle, ck.firstFailure)
		}

		// The oracle for this model is the Scout just trained; its work
		// is the harness's and is not charged to the cycle.
		sp = tr.start(root, "harness.oracle", len(t.items))
		m.exclude(func() {
			sc.SetDegradationPolicy(core.DegradationPolicy{MinCoverage: minCoverage})
			for i := range t.items {
				r := &t.items[i].req
				ck.want[i] = sc.Predict(r.Title, r.Body, r.Components, r.Time)
			}
		})
		tr.finish(sp)

		// Serve the held-out corpus against the swapped model.
		serveSpan := tr.start(root, "retrain.serve", len(t.items))
		var first float64
		for b := range t.batches {
			m.tick()
			sp = tr.start(serveSpan, "http", batchSize)
			status, body, lat, err := cl.post(batchURL, t.batches[b])
			tr.finish(sp)
			if ck.batch(b*batchSize, batchSize, status, body, err) {
				m.request(lat, batchSize)
			}
			if b == 0 {
				first = ms(lat)
			}
		}
		for i := batched; i < len(t.items); i++ {
			m.tick()
			sp = tr.start(serveSpan, "http", 1)
			status, body, lat, err := cl.post(t.url, t.items[i].body)
			tr.finish(sp)
			if ck.single(i, status, body, err, nil) {
				m.request(lat, 1)
			}
		}
		m.end()
		tr.finish(serveSpan)
		tr.finish(root)
		done += m.cur.wall
		st.cycles++
		st.cycleS = append(st.cycleS, m.cur.wall.Seconds())
		st.trainS = append(st.trainS, trainS)
		st.publishMs = append(st.publishMs, publishMs)
		st.reloadMs = append(st.reloadMs, ms(reloadLat))
		st.first = append(st.first, first)
	}
	return nil
}

// prune keeps the newest keep model files of a store directory.
func prune(dir string, keep int) error {
	names, err := filepath.Glob(filepath.Join(dir, "model-*.pack"))
	if err != nil {
		return err
	}
	slices.Sort(names) // zero-padded versions sort by age
	for _, old := range names[:max(0, len(names)-keep)] {
		if err := os.Remove(old); err != nil {
			return err
		}
	}
	return nil
}
