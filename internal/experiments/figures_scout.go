package experiments

import (
	"fmt"
	"strings"

	"scouts/internal/core"
	"scouts/internal/evaluate"
	"scouts/internal/incident"
	"scouts/internal/metrics"
	"scouts/internal/parallel"
)

// Figure7Result reproduces Figure 7: the Scout's gain and overhead on
// mis-routed test incidents, against the best possible gate-keeper.
type Figure7Result struct {
	GainIn, BestGainIn, OverheadIn Series
	GainOut, BestGainOut           Series
	ErrorOut                       float64
	CorrectOnCorrect               float64
}

func (f Figure7Result) String() string {
	return renderSeries("Figure 7a: gain-in / overhead-in for mis-routed incidents (CDF, fraction of time)",
		[]Series{f.GainIn, f.BestGainIn, f.OverheadIn}) +
		renderSeries("Figure 7b: gain-out for mis-routed incidents (CDF)",
			[]Series{f.GainOut, f.BestGainOut}) +
		fmt.Sprintf("  error-out: %.2f%% (paper: 1.7%%); correct on already-correct: %.1f%% (paper: 98.9%%)\n",
			f.ErrorOut*100, f.CorrectOnCorrect*100)
}

// Figure7 runs the §7 gain/overhead evaluation.
func Figure7(lab *Lab) Figure7Result {
	baseline := evaluate.OverheadDistribution(lab.Train, Team)
	r := evaluate.RunWorkers(lab.Scout, lab.Test, Team, baseline, lab.RNG(7), lab.Params.Workers)
	return Figure7Result{
		GainIn:           cdfSeries("gain-in", r.GainIn, 11),
		BestGainIn:       cdfSeries("best possible gain-in", r.BestGainIn, 11),
		OverheadIn:       cdfSeries("overhead-in", r.OverheadIn, 11),
		GainOut:          cdfSeries("gain-out", r.GainOut, 11),
		BestGainOut:      cdfSeries("best possible gain-out", r.BestGainOut, 11),
		ErrorOut:         r.ErrorOut,
		CorrectOnCorrect: r.CorrectOnAlreadyCorrect,
	}
}

// Figure11Result is Figure 11: the same gain/overhead analysis restricted
// to incidents created by other teams' watchdogs.
type Figure11Result struct {
	GainIn, BestGainIn, OverheadIn Series
	GainOut, BestGainOut           Series
	ErrorOut                       float64
}

func (f Figure11Result) String() string {
	return renderSeries("Figure 11a: gain/overhead-in, incidents from other teams' watchdogs (CDF)",
		[]Series{f.GainIn, f.BestGainIn, f.OverheadIn}) +
		renderSeries("Figure 11b: gain-out, incidents from other teams' watchdogs (CDF)",
			[]Series{f.GainOut, f.BestGainOut}) +
		fmt.Sprintf("  error-out: %.2f%% (paper: 3.06%%)\n", f.ErrorOut*100)
}

// Figure11 filters the test set to non-PhyNet-monitor incidents.
func Figure11(lab *Lab) Figure11Result {
	var subset []*incident.Incident
	for _, in := range lab.Test {
		if in.Source == incident.SourceMonitor && in.CreatedBy != Team {
			subset = append(subset, in)
		}
	}
	baseline := evaluate.OverheadDistribution(lab.Train, Team)
	r := evaluate.RunWorkers(lab.Scout, subset, Team, baseline, lab.RNG(11), lab.Params.Workers)
	return Figure11Result{
		GainIn:      cdfSeries("gain-in", r.GainIn, 11),
		BestGainIn:  cdfSeries("best possible gain-in", r.BestGainIn, 11),
		OverheadIn:  cdfSeries("overhead-in", r.OverheadIn, 11),
		GainOut:     cdfSeries("gain-out", r.GainOut, 11),
		BestGainOut: cdfSeries("best possible gain-out", r.BestGainOut, 11),
		ErrorOut:    r.ErrorOut,
	}
}

// Figure12Row is one x-position of Figure 12: the Scout triggered after n
// teams have investigated a customer-reported incident.
type Figure12Row struct {
	N                        int
	GainInAvg, GainInP95     float64
	GainInP99, GainInMax     float64
	GainOutAvg, GainOutP95   float64
	GainOutP99, GainOutMax   float64
	OverheadAvg, OverheadP95 float64
	ErrorOut                 float64
}

// Figure12Result reproduces the CRI replay: Scouts are not one-shot — they
// can be re-queried before each transfer, and CRIs start with missing
// information that earlier teams fill in (§7.4).
type Figure12Result struct {
	Rows []Figure12Row
}

func (f Figure12Result) String() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 12: CRIs — Scout triggered after n team investigations")
	fmt.Fprintln(&b, "   n  gain-in(avg/p95/p99/max)      gain-out(avg/p95/p99/max)     ovh-in(avg/p95)  err-out")
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "  %2d  %.2f/%.2f/%.2f/%.2f           %.2f/%.2f/%.2f/%.2f          %.2f/%.2f        %.2f%%\n",
			r.N, r.GainInAvg, r.GainInP95, r.GainInP99, r.GainInMax,
			r.GainOutAvg, r.GainOutP95, r.GainOutP99, r.GainOutMax,
			r.OverheadAvg, r.OverheadP95, r.ErrorOut*100)
	}
	return b.String()
}

// Figure12 replays the CRIs of the test set with delayed Scout triggers.
func Figure12(lab *Lab, maxN int) Figure12Result {
	if maxN <= 0 {
		maxN = 10
	}
	var cris []*incident.Incident
	for _, in := range lab.Test {
		if in.Source == incident.SourceCustomer {
			cris = append(cris, in)
		}
	}
	baseline := evaluate.OverheadDistribution(lab.Train, Team)
	rng := lab.RNG(12)
	var out Figure12Result
	for n := 1; n <= maxN; n++ {
		// Phase 1 (parallel): one Scout query per CRI — the expensive
		// part. Phase 2 (sequential, incident order): accounting plus the
		// overhead rng draws, which must happen in deterministic order so
		// results match a sequential run at any worker count.
		type cri struct {
			trigger float64
			pred    core.Prediction
		}
		queried := parallel.Map(lab.Params.Workers, len(cris), func(i int) cri {
			in := cris[i]
			trigger := evaluate.NthTeamExit(in, n)
			// Information accrues: after the first team, the component
			// names discovered during investigation are in the incident.
			mentioned := in.InitialComponents
			if n >= 1 {
				mentioned = in.Components
			}
			return cri{trigger: trigger, pred: lab.Scout.Predict(in.Title, in.Body, mentioned, trigger)}
		})
		var gainIn, gainOut, overhead []float64
		fn, owned := 0, 0
		for i, in := range cris {
			trigger, p := queried[i].trigger, queried[i].pred
			if !p.Usable() {
				continue
			}
			total := in.TotalTime()
			if total <= 0 {
				continue
			}
			if in.OwnerLabel == Team {
				owned++
				if !p.Responsible {
					fn++
				}
				saved := 0.0
				if p.Responsible {
					saved = evaluate.WastedAfter(in, Team, trigger) / total
				}
				gainIn = append(gainIn, saved)
				continue
			}
			if !p.Responsible {
				gainOut = append(gainOut, evaluate.TeamTimeAfter(in, Team, trigger)/total)
				overhead = append(overhead, 0)
			} else {
				gainOut = append(gainOut, 0)
				if len(baseline) > 0 {
					overhead = append(overhead, baseline[rng.Intn(len(baseline))])
				}
			}
		}
		row := Figure12Row{N: n}
		gi := sortedCopy(gainIn)
		row.GainInAvg = metrics.Mean(gainIn)
		row.GainInP95 = metrics.Quantile(gi, 0.95)
		row.GainInP99 = metrics.Quantile(gi, 0.99)
		row.GainInMax = metrics.Quantile(gi, 1)
		goSorted := sortedCopy(gainOut)
		row.GainOutAvg = metrics.Mean(gainOut)
		row.GainOutP95 = metrics.Quantile(goSorted, 0.95)
		row.GainOutP99 = metrics.Quantile(goSorted, 0.99)
		row.GainOutMax = metrics.Quantile(goSorted, 1)
		ov := sortedCopy(overhead)
		row.OverheadAvg = metrics.Mean(overhead)
		row.OverheadP95 = metrics.Quantile(ov, 0.95)
		if owned > 0 {
			row.ErrorOut = float64(fn) / float64(owned)
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// Figure13Result reproduces the Euclidean class-distance analysis: within
// PhyNet incidents, within non-PhyNet incidents, and across the classes.
type Figure13Result struct {
	WithinPos, WithinNeg, Cross Series
}

func (f Figure13Result) String() string {
	return renderSeries("Figure 13: Euclidean feature distances (CDF)",
		[]Series{f.WithinPos, f.WithinNeg, f.Cross})
}

// Figure13 computes the distances over the test feature matrix.
func Figure13(lab *Lab) Figure13Result {
	pos, neg := splitByLabel(lab.TestX, lab.TestY)
	wp, wn, cr := ClassDistances(pos, neg, 20000)
	return Figure13Result{
		WithinPos: cdfSeries("within PhyNet", wp, 11),
		WithinNeg: cdfSeries("within non-PhyNet", wn, 11),
		Cross:     cdfSeries("cross-class", cr, 11),
	}
}

// Figure14Result repeats Figure 13 per component-type feature block.
type Figure14Result struct {
	PerType map[string]Figure13Result
}

func (f Figure14Result) String() string {
	var b strings.Builder
	for _, typ := range []string{"server", "switch", "cluster"} {
		r, ok := f.PerType[typ]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "Figure 14 (%s features):\n%s", typ, r.String())
	}
	return b.String()
}

// Figure14 projects the feature matrix onto each type's columns.
func Figure14(lab *Lab) Figure14Result {
	names := lab.Scout.FeatureNames()
	out := Figure14Result{PerType: map[string]Figure13Result{}}
	for _, typ := range []string{"server", "switch", "cluster"} {
		var idx []int
		for i, n := range names {
			if strings.HasPrefix(n, typ+".") {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			continue
		}
		project := func(xs [][]float64) [][]float64 {
			out := make([][]float64, len(xs))
			for i, x := range xs {
				p := make([]float64, len(idx))
				for k, j := range idx {
					p[k] = x[j]
				}
				out[i] = p
			}
			return out
		}
		pos, neg := splitByLabel(lab.TestX, lab.TestY)
		wp, wn, cr := ClassDistances(project(pos), project(neg), 20000)
		out.PerType[typ] = Figure13Result{
			WithinPos: cdfSeries("within PhyNet", wp, 11),
			WithinNeg: cdfSeries("within non-PhyNet", wn, 11),
			Cross:     cdfSeries("cross-class", cr, 11),
		}
	}
	return out
}

func splitByLabel(xs [][]float64, ys []bool) (pos, neg [][]float64) {
	for i, x := range xs {
		if ys[i] {
			pos = append(pos, x)
		} else {
			neg = append(neg, x)
		}
	}
	return pos, neg
}
