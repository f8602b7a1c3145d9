package experiments

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"scouts/internal/core"
	"scouts/internal/incident"
	"scouts/internal/metrics"
	"scouts/internal/ml/forest"
	"scouts/internal/ml/mlcore"
	"scouts/internal/parallel"
)

// F1Point is one (day, F1) sample of a retraining replay.
type F1Point struct {
	Day float64
	F1  float64
}

// ReplayOptions configure the time-ordered retraining replays of
// Figures 8 and 10.
type ReplayOptions struct {
	// WarmupDays of trace train the first Scout (default 1/3 of the trace).
	WarmupDays int
	// RetrainEveryDays is the retraining cadence.
	RetrainEveryDays int
	// WindowDays keeps only this much history for training (0 = growing
	// training set — Figure 10a vs 10b).
	WindowDays int
	// EvalChunkDays is the evaluation granularity (default 10).
	EvalChunkDays int
	// Decider selects the model-selector variant (default bag-of-words).
	Decider DeciderKind
}

func (o ReplayOptions) withDefaults(lab *Lab) ReplayOptions {
	if o.WarmupDays <= 0 {
		o.WarmupDays = lab.Params.Days / 3
	}
	if o.RetrainEveryDays <= 0 {
		o.RetrainEveryDays = 10
	}
	if o.EvalChunkDays <= 0 {
		o.EvalChunkDays = 10
	}
	if o.Decider == "" {
		o.Decider = DeciderBagOfWords
	}
	return o
}

// Replay walks the trace in time order, retraining the Scout on the given
// cadence and scoring each evaluation chunk — the engine behind Figures 8
// and 10.
func Replay(lab *Lab, opt ReplayOptions) ([]F1Point, error) {
	opt = opt.withDefaults(lab)
	incidents := append([]*incident.Incident(nil), lab.Log.Incidents...)
	// Stable: incidents created in the same model hour keep their trace
	// order, so the replay schedule is a pure function of the log.
	slices.SortStableFunc(incidents, func(a, b *incident.Incident) int {
		return cmp.Compare(a.CreatedAt, b.CreatedAt)
	})

	var points []F1Point
	var scout *core.Scout
	lastTrainDay := -1 << 30
	endDay := lab.Params.Days

	for day := opt.WarmupDays; day < endDay; day += opt.EvalChunkDays {
		if day-lastTrainDay >= opt.RetrainEveryDays {
			from := 0.0
			if opt.WindowDays > 0 {
				from = float64(day-opt.WindowDays) * 24
			}
			var train []*incident.Incident
			for _, in := range incidents {
				if in.CreatedAt >= from && in.CreatedAt < float64(day)*24 {
					train = append(train, in)
				}
			}
			if len(train) > 0 {
				s, err := core.Train(core.TrainOptions{
					Config:    lab.Cfg,
					Topology:  lab.Gen.Topology(),
					Source:    lab.Gen.Telemetry(),
					Incidents: train,
					Seed:      lab.Params.Seed + int64(day),
					Cache:     lab.Cache,
					Workers:   lab.Params.Workers,
				})
				if err != nil {
					return nil, err
				}
				if opt.Decider != DeciderBagOfWords {
					docs, wrong := s.SelectorExamples()
					d, err := buildDecider(opt.Decider, docs, wrong, lab.Params.Seed+int64(day))
					if err != nil {
						return nil, err
					}
					s.SetDecider(d)
				}
				scout = s
				lastTrainDay = day
			}
		}
		if scout == nil {
			continue
		}
		// Score the evaluation chunk with a parallel prediction fan-out —
		// PredictCached is the served pipeline reading each incident
		// through the shared lab cache, which is safe for concurrent use —
		// and a sequential fold in incident order.
		var chunk []*incident.Incident
		for _, in := range incidents {
			if in.CreatedAt < float64(day)*24 || in.CreatedAt >= float64(day+opt.EvalChunkDays)*24 {
				continue
			}
			chunk = append(chunk, in)
		}
		preds := parallel.Map(lab.Params.Workers, len(chunk), func(i int) core.Prediction {
			return scout.PredictCached(chunk[i], lab.Cache)
		})
		var c metrics.Confusion
		for i, p := range preds {
			if !p.Usable() {
				continue
			}
			c.Add(p.Responsible, chunk[i].OwnerLabel == Team)
		}
		if c.Total() > 0 {
			points = append(points, F1Point{Day: float64(day) + float64(opt.EvalChunkDays)/2, F1: c.F1()})
		}
	}
	return points, nil
}

// Figure10Result reproduces Figure 10: F1 over time under different
// retraining cadences, with a growing training set (a) and a fixed 60-day
// window (b). The emergent "optics-brownout" family causes the mid-trace
// dip that frequent retraining recovers from first.
type Figure10Result struct {
	Growing map[int][]F1Point // retrain interval (days) -> series
	Sliding map[int][]F1Point
}

func (f Figure10Result) String() string {
	render := func(title string, m map[int][]F1Point) string {
		var b strings.Builder
		fmt.Fprintln(&b, title)
		var keys []int
		for k := range m {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "  retrain every %d days:", k)
			for _, p := range m[k] {
				fmt.Fprintf(&b, " (%.0f, %.2f)", p.Day, p.F1)
			}
			fmt.Fprintln(&b)
		}
		return b.String()
	}
	return render("Figure 10a: F1 over time, growing training set", f.Growing) +
		render("Figure 10b: F1 over time, fixed 60-day training window", f.Sliding)
}

// Figure10 runs the retraining replays for intervals 10/20/30/60 days.
func Figure10(lab *Lab) (Figure10Result, error) {
	out := Figure10Result{Growing: map[int][]F1Point{}, Sliding: map[int][]F1Point{}}
	for _, interval := range []int{10, 20, 30, 60} {
		g, err := Replay(lab, ReplayOptions{RetrainEveryDays: interval})
		if err != nil {
			return out, err
		}
		out.Growing[interval] = g
		s, err := Replay(lab, ReplayOptions{RetrainEveryDays: interval, WindowDays: 60})
		if err != nil {
			return out, err
		}
		out.Sliding[interval] = s
	}
	return out, nil
}

// Figure8Result compares decider variants under 10-day and 60-day
// retraining cadences.
type Figure8Result struct {
	Fast, Slow map[DeciderKind][]F1Point
}

func (f Figure8Result) String() string {
	render := func(title string, m map[DeciderKind][]F1Point) string {
		var b strings.Builder
		fmt.Fprintln(&b, title)
		for _, k := range AllDeciders {
			pts, ok := m[k]
			if !ok {
				continue
			}
			fmt.Fprintf(&b, "  %-28s:", k)
			for _, p := range pts {
				fmt.Fprintf(&b, " (%.0f, %.2f)", p.Day, p.F1)
			}
			fmt.Fprintln(&b)
		}
		return b.String()
	}
	return render("Figure 8a: decider comparison, 10-day retraining", f.Fast) +
		render("Figure 8b: decider comparison, 60-day retraining", f.Slow)
}

// Figure8 runs the decider comparison.
func Figure8(lab *Lab) (Figure8Result, error) {
	out := Figure8Result{Fast: map[DeciderKind][]F1Point{}, Slow: map[DeciderKind][]F1Point{}}
	for _, d := range AllDeciders {
		fast, err := Replay(lab, ReplayOptions{RetrainEveryDays: 10, Decider: d})
		if err != nil {
			return out, err
		}
		out.Fast[d] = fast
		slow, err := Replay(lab, ReplayOptions{RetrainEveryDays: 60, Decider: d})
		if err != nil {
			return out, err
		}
		out.Slow[d] = slow
	}
	return out, nil
}

// Figure9Result reproduces the monitoring-deprecation study: F1 after
// removing n monitoring systems, for random removals (average case) and
// importance-ordered removals (worst case).
type Figure9Result struct {
	N         []int
	AvgCase   []float64
	WorstCase []float64
	Baseline  float64 // F1 with every monitor present
}

func (f Figure9Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9: F1 vs removed monitoring systems (baseline F1 = %.3f)\n", f.Baseline)
	fmt.Fprintln(&b, "   n   average-case   worst-case")
	for i, n := range f.N {
		fmt.Fprintf(&b, "  %2d   %12.3f   %10.3f\n", n, f.AvgCase[i], f.WorstCase[i])
	}
	return b.String()
}

// Figure9 removes feature groups from the cached matrices and retrains.
// Removing a dataset zeroes its features at train time and mean-imputes at
// inference (§6), which on a retrained model is exactly a zeroed column —
// so the study runs on the supervised path at matrix level.
func Figure9(lab *Lab, maxRemoved, randomTrials int) (Figure9Result, error) {
	if maxRemoved <= 0 {
		maxRemoved = 7
	}
	if randomTrials <= 0 {
		randomTrials = 3
	}
	groups := lab.Scout.Builder().Groups()
	slots := map[string][]int{}
	for _, g := range groups {
		slots[g] = lab.Scout.Builder().GroupSlots(g)
	}

	evalWithout := func(removed []string, seed int64) (float64, error) {
		zero := map[int]bool{}
		for _, g := range removed {
			for _, s := range slots[g] {
				zero[s] = true
			}
		}
		mask := func(x []float64) []float64 {
			out := append([]float64(nil), x...)
			for s := range zero {
				out[s] = 0
			}
			return out
		}
		d := mlcore.NewDataset(lab.Scout.FeatureNames())
		for i := range lab.TrainX {
			d.MustAdd(mlcore.Sample{X: mask(lab.TrainX[i]), Y: lab.TrainY[i], ID: lab.TrainIDs[i]})
		}
		f, err := forest.Train(d, lab.DefaultForest(seed))
		if err != nil {
			return 0, err
		}
		preds := parallel.Map(lab.Params.Workers, len(lab.TestX), func(i int) bool {
			pred, _ := f.Predict(mask(lab.TestX[i]))
			return pred
		})
		var c metrics.Confusion
		for i, pred := range preds {
			c.Add(pred, lab.TestY[i])
		}
		return c.F1(), nil
	}

	base, err := evalWithout(nil, lab.Params.Seed)
	if err != nil {
		return Figure9Result{}, err
	}

	// Worst case: remove the most influential groups first.
	imp := lab.Scout.Forest().Importance()
	type gi struct {
		g string
		v float64
	}
	var ranked []gi
	for _, g := range groups {
		v := 0.0
		for _, s := range slots[g] {
			v += imp[s]
		}
		ranked = append(ranked, gi{g, v})
	}
	// Stable: groups with equal importance keep their feature-group
	// order, so the worst-case removal schedule is deterministic.
	slices.SortStableFunc(ranked, func(a, b gi) int { return cmp.Compare(b.v, a.v) })

	rng := lab.RNG(9)
	out := Figure9Result{Baseline: base}
	for n := 1; n <= maxRemoved && n <= len(groups); n++ {
		// Average case: random subsets.
		var sum float64
		for trial := 0; trial < randomTrials; trial++ {
			perm := rng.Perm(len(groups))
			var rem []string
			for _, i := range perm[:n] {
				rem = append(rem, groups[i])
			}
			f1, err := evalWithout(rem, lab.Params.Seed+int64(n*100+trial))
			if err != nil {
				return out, err
			}
			sum += f1
		}
		// Worst case: top-n by importance.
		var worstRem []string
		for _, r := range ranked[:n] {
			worstRem = append(worstRem, r.g)
		}
		worst, err := evalWithout(worstRem, lab.Params.Seed+int64(n*100+99))
		if err != nil {
			return out, err
		}
		out.N = append(out.N, n)
		out.AvgCase = append(out.AvgCase, sum/float64(randomTrials))
		out.WorstCase = append(out.WorstCase, worst)
	}
	return out, nil
}
