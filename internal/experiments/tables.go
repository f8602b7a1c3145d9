package experiments

import (
	"fmt"
	"strings"
	"time"

	"scouts/internal/cloudsim"
	"scouts/internal/core"
	"scouts/internal/metrics"
	"scouts/internal/ml/bayes"
	"scouts/internal/ml/boost"
	"scouts/internal/ml/discriminant"
	"scouts/internal/ml/forest"
	"scouts/internal/ml/mlcore"
	"scouts/internal/ml/neighbors"
	"scouts/internal/ml/neural"
	"scouts/internal/parallel"
	"scouts/internal/survey"
)

// ModelRow is one row of an accuracy table.
type ModelRow struct {
	Name      string
	Precision float64
	Recall    float64
	F1        float64
}

func (r ModelRow) String() string {
	return fmt.Sprintf("%-28s P=%5.1f%%  R=%5.1f%%  F1=%.2f",
		r.Name, r.Precision*100, r.Recall*100, r.F1)
}

// Table1Result compares the Scout's two models against the NLP baseline
// (paper: RF 97.2/97.6/0.97, CPD+ 93.1/94.0/0.94, NLP 96.5/91.3/0.94).
type Table1Result struct {
	Rows []ModelRow
}

func (t Table1Result) String() string { return renderModelTable("Table 1: model comparison", t.Rows) }

func renderModelTable(title string, rows []ModelRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, title)
	for _, r := range rows {
		fmt.Fprintf(&b, "  %s\n", r)
	}
	return b.String()
}

// Table1 evaluates the supervised RF, CPD+ and the NLP recommender on the
// test set; each Scout model answers through the served pipeline with the
// model selector's choice forced (Scout.PredictWithModel).
func Table1(lab *Lab) Table1Result {
	// Three independent model queries per incident — fan out in parallel,
	// fold the confusion matrices sequentially in incident order.
	type triple struct {
		rf, cpd core.Prediction
		nlpTop  string
	}
	preds := parallel.Map(lab.Params.Workers, len(lab.Test), func(i int) triple {
		in := lab.Test[i]
		var t triple
		t.rf = lab.Scout.PredictWithModel("rf", in.Title, in.Body, in.InitialComponents, in.CreatedAt)
		t.cpd = lab.Scout.PredictWithModel("cpd+", in.Title, in.Body, in.InitialComponents, in.CreatedAt)
		t.nlpTop = lab.NLP.Route(incidentText(in))
		return t
	})
	var rf, cpdC, nlp metrics.Confusion
	for i, in := range lab.Test {
		actual := in.OwnerLabel == Team
		if p := preds[i].rf; p.Usable() {
			rf.Add(p.Responsible, actual)
		}
		if p := preds[i].cpd; p.Usable() {
			cpdC.Add(p.Responsible, actual)
		}
		nlp.Add(preds[i].nlpTop == Team, actual)
	}
	return Table1Result{Rows: []ModelRow{
		{"RF", rf.Precision(), rf.Recall(), rf.F1()},
		{"CPD+", cpdC.Precision(), cpdC.Recall(), cpdC.F1()},
		{"NLP (legacy recommender)", nlp.Precision(), nlp.Recall(), nlp.F1()},
	}}
}

// Table2Result lists the PhyNet Scout's monitoring datasets.
type Table2Result struct {
	Rows [][3]string // name, type, description
}

func (t Table2Result) String() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Table 2: data sets used in the PhyNet Scout")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "  %-12s %-12s %s\n", r[0], r[1], r[2])
	}
	return b.String()
}

// Table2 enumerates the monitoring registry.
func Table2(lab *Lab) Table2Result {
	var t Table2Result
	for _, d := range lab.Gen.Telemetry().Datasets() {
		t.Rows = append(t.Rows, [3]string{d.Name, d.Type.String(), d.Description})
	}
	return t
}

// Table3Result is the Appendix A survey tabulation.
type Table3Result struct {
	Aggregates survey.Aggregates
}

func (t Table3Result) String() string {
	s := survey.Table3(t.Aggregates)
	s += fmt.Sprintf("impact>=3: %d/27, impact>=4: %d/27, blamed>60%%: %d, others<20%%: %d, >3 teams: %d, >=2 teams: %d\n",
		t.Aggregates.ImpactAtLeast3, t.Aggregates.ImpactAtLeast4, t.Aggregates.BlamedOver60,
		t.Aggregates.OthersUnder20, t.Aggregates.MoreThan3Teams, t.Aggregates.AtLeast2Teams)
	return "Table 3: operator survey\n" + s
}

// Table3 tabulates the survey responses.
func Table3() Table3Result {
	return Table3Result{Aggregates: survey.Aggregate(survey.Responses())}
}

// Table4Result compares alternative supervised models on the Scout's
// feature set (paper: KNN 0.95, MLP 0.93, AdaBoost 0.96, GNB 0.73,
// QDA 0.90).
type Table4Result struct {
	Rows []ModelRow
}

func (t Table4Result) String() string {
	return renderModelTable("Table 4: alternative supervised models", t.Rows)
}

// Table4 trains each alternative model on the cached training matrix.
func Table4(lab *Lab) (Table4Result, error) {
	train := lab.TrainSet()
	models := []struct {
		name    string
		trainer mlcore.Trainer
	}{
		{"KNN", neighbors.Trainer(neighbors.DefaultParams)},
		{"Neural network (1 layer)", neural.Trainer(neural.Params{Hidden: 32, Epochs: 40, Seed: lab.Params.Seed})},
		{"AdaBoost", boost.Trainer(boost.Params{Rounds: 60})},
		{"Gaussian naive Bayes", bayes.Trainer(bayes.Params{})},
		{"Quadratic discriminant", discriminant.Trainer(discriminant.Params{Reg: 1e-2})},
	}
	var out Table4Result
	for _, m := range models {
		clf, err := m.trainer.Train(train)
		if err != nil {
			return out, fmt.Errorf("table 4: %s: %w", m.name, err)
		}
		c := lab.EvalVectors(clf)
		out.Rows = append(out.Rows, ModelRow{m.name, c.Precision(), c.Recall(), c.F1()})
	}
	return out, nil
}

// Table5Result is the Appendix B deflation study over per-component-type
// feature subsets.
type Table5Result struct {
	Rows []ModelRow
}

func (t Table5Result) String() string {
	return renderModelTable("Table 5: deflation study (feature subsets)", t.Rows)
}

// Table5 retrains the forest on per-component-type feature subsets.
func Table5(lab *Lab) (Table5Result, error) {
	names := lab.Scout.FeatureNames()
	only := func(prefixes ...string) []int {
		var idx []int
		for i, n := range names {
			for _, p := range prefixes {
				if strings.HasPrefix(n, p+".") {
					idx = append(idx, i)
					break
				}
			}
		}
		return idx
	}
	without := func(prefix string) []int {
		var idx []int
		for i, n := range names {
			if !strings.HasPrefix(n, prefix+".") {
				idx = append(idx, i)
			}
		}
		return idx
	}
	all := make([]int, len(names))
	for i := range all {
		all[i] = i
	}
	subsets := []struct {
		name string
		idx  []int
	}{
		{"Server only", only("server")},
		{"Switch only", only("switch")},
		{"Cluster only", only("cluster")},
		{"Without cluster", without("cluster")},
		{"Without switches", without("switch")},
		{"Without server", without("server")},
		{"All", all},
	}
	var out Table5Result
	for k, sub := range subsets {
		if len(sub.idx) == 0 {
			return out, fmt.Errorf("table 5: empty subset %q", sub.name)
		}
		c, err := evalSubset(lab, sub.idx, lab.Params.Seed+int64(k))
		if err != nil {
			return out, fmt.Errorf("table 5: %s: %w", sub.name, err)
		}
		out.Rows = append(out.Rows, ModelRow{sub.name, c.Precision(), c.Recall(), c.F1()})
	}
	return out, nil
}

// evalSubset trains a forest on the selected feature columns and evaluates
// on the test matrix.
func evalSubset(lab *Lab, idx []int, seed int64) (metrics.Confusion, error) {
	project := func(x []float64) []float64 {
		out := make([]float64, len(idx))
		for i, j := range idx {
			out[i] = x[j]
		}
		return out
	}
	nm := make([]string, len(idx))
	for i, j := range idx {
		nm[i] = lab.Scout.FeatureNames()[j]
	}
	d := mlcore.NewDataset(nm)
	for i := range lab.TrainX {
		d.MustAdd(mlcore.Sample{X: project(lab.TrainX[i]), Y: lab.TrainY[i], ID: lab.TrainIDs[i]})
	}
	f, err := forest.Train(d, lab.DefaultForest(seed))
	if err != nil {
		return metrics.Confusion{}, err
	}
	var c metrics.Confusion
	for i := range lab.TestX {
		pred, _ := f.Predict(project(lab.TestX[i]))
		c.Add(pred, lab.TestY[i])
	}
	return c, nil
}

// HeadlineResult is §7.1: full-pipeline Scout accuracy vs the baseline
// routing process (paper: Scout 97.5/97.7/0.98 vs baseline 87.2/91.9/0.89,
// and 98.9% correct on already-correctly-routed incidents).
type HeadlineResult struct {
	Scout    ModelRow
	Baseline ModelRow
}

func (h HeadlineResult) String() string {
	return "§7.1 headline accuracy\n  " + h.Scout.String() + "\n  " + h.Baseline.String() + "\n"
}

// Headline evaluates the end-to-end Scout pipeline against the baseline
// routing process. The baseline's "answer" for a team is whether the
// existing machinery (watchdog rules, run-books, support triage, the NLP
// recommender) puts the incident in that team's queue early in its life —
// operationalized as the team appearing among the first two engineering
// teams of the historical path (support triage is not an engineering
// assignment).
func Headline(lab *Lab) HeadlineResult {
	scout := lab.Scout.EvaluateWorkers(lab.Test, 0)
	var base metrics.Confusion
	for _, in := range lab.Test {
		if len(in.Hops) == 0 {
			continue
		}
		early := false
		seen := 0
		for _, h := range in.Hops {
			if h.Team == cloudsim.TeamSupport {
				continue
			}
			seen++
			if h.Team == Team {
				early = true
				break
			}
			if seen == 2 {
				break
			}
		}
		base.Add(early, in.OwnerLabel == Team)
	}
	return HeadlineResult{
		Scout:    ModelRow{"PhyNet Scout (full pipeline)", scout.Precision(), scout.Recall(), scout.F1()},
		Baseline: ModelRow{"Baseline incident routing", base.Precision(), base.Recall(), base.F1()},
	}
}

// LatencyResult is the §6 inference-cost measurement. The paper reports
// 1.79±0.85 minutes per call, dominated by pulling monitoring data from
// production stores; here the substrate is in-process, so only the shape
// (well under the operator-minutes scale) is expected to match.
type LatencyResult struct {
	MeanSeconds, StdSeconds float64
	Samples                 int
}

func (l LatencyResult) String() string {
	return fmt.Sprintf("§6 inference latency: %.4fs ± %.4fs over %d calls\n",
		l.MeanSeconds, l.StdSeconds, l.Samples)
}

// InferenceLatency times end-to-end Scout predictions with the Lab's
// clock (wall time by default; tests inject a fake to make the one
// wall-clock-dependent table reproducible).
func InferenceLatency(lab *Lab, calls int) LatencyResult {
	if calls <= 0 || calls > len(lab.Test) {
		calls = min(200, len(lab.Test))
	}
	now := lab.Clock
	if now == nil {
		now = time.Now
	}
	var durs []float64
	for _, in := range lab.Test[:calls] {
		start := now()
		_ = lab.Scout.PredictIncident(in)
		durs = append(durs, now().Sub(start).Seconds())
	}
	return LatencyResult{
		MeanSeconds: metrics.Mean(durs),
		StdSeconds:  metrics.StdDev(durs),
		Samples:     len(durs),
	}
}
