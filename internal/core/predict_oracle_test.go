package core

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"scouts/internal/cloudsim"
	"scouts/internal/incident"
	"scouts/internal/ml/forest"
)

// The RF answer path as it read while the explanation ranked every feature
// to print three and formatted each with Sprintf: kept verbatim as the
// reference the one-buffer path is compared against. oldPredict is
// Scout.predict over oldExtract (extract_oracle_test.go), the text joined a
// second time for the selector (useCPDJoined), and these.

// oldUseCPD is Selector.UseCPD as it read while the pipeline handed every
// decider the joined text title + "\n" + body.
func (s *Selector) oldUseCPD(incidentText string) (bool, float64) {
	if s.rf == nil || s.words == nil {
		return false, 0
	}
	// The default vocabulary (60 words) is counted into a stack vector.
	var counts [64]float64
	wrong, conf := s.rf.Predict(s.words.FeaturizeText(counts[:0], incidentText))
	p := conf
	if !wrong {
		p = 1 - conf
	}
	return p > s.threshold, p
}

// useCPDJoined asks a decider as the old paths did: the Scout's own
// selector over the joined text, any other decider as it is.
func useCPDJoined(d DeciderModel, title, body string) (bool, float64) {
	if sel, ok := d.(*Selector); ok {
		return sel.oldUseCPD(title + "\n" + body)
	}
	return d.UseCPD(title, body)
}

func (s *Scout) oldExplainRF(x []float64, label bool) string {
	_, contribs := s.rf.Explain(x)
	var tops []string
	for _, c := range contribs {
		if len(tops) == 3 {
			break
		}
		// Component-count features confuse operators even though the
		// model finds them useful (§8): keep them out of explanations.
		if strings.HasSuffix(c.Feature, ".ncomponents") {
			continue
		}
		tops = append(tops, fmt.Sprintf("%s (%+.3f)", c.Feature, c.Value))
	}
	direction := "points away from"
	if label {
		direction = "points to"
	}
	out := fmt.Sprintf("random forest %s %s", direction, s.cfg.Team)
	if len(tops) > 0 {
		out += "; strongest signals: " + strings.Join(tops, ", ")
	}
	out += ". Known false negatives: transient issues already resolved, symptoms not covered by monitoring, incidents too broad in scope."
	return out
}

// stringExplainRF is explainRF as it read while an RF answer carried its
// explanation as a string: the same text, rendered into one buffer, the
// string its only allocation. It is the oracle the kept signals are held
// to (TestExplanationMatchesStringOracle).
func (s *Scout) stringExplainRF(x []float64, label bool) string {
	var arr [512]byte
	out := append(arr[:0], "random forest points "...)
	if label {
		out = append(out, "to "...)
	} else {
		out = append(out, "away from "...)
	}
	out = append(out, s.cfg.Team...)
	bare := len(out)
	out = append(out, "; strongest signals: "...)
	n := len(out)
	if out = s.rf.AppendTopSignals(out, x, 3, isCountFeature); len(out) == n {
		out = out[:bare]
	}
	out = append(out, ". Known false negatives: transient issues already resolved, symptoms not covered by monitoring, incidents too broad in scope."...)
	return string(out)
}

// plain is p with its explanation as Text, however the answer kept it: the
// oracles' answers carry theirs as a string.
func plain(p Prediction) Prediction {
	p.Text, p.rf = p.Explanation(), rfExplanation{}
	return p
}

func (s *Scout) oldPredictRF(x []float64, ex Extraction) Prediction {
	label, conf := s.rf.Predict(x)
	return Prediction{
		Verdict:     verdictFor(label),
		Responsible: label,
		Confidence:  conf,
		Model:       "rf",
		Components:  oldAll(ex),
		Text:        s.oldExplainRF(x, label),
	}
}

func (s *Scout) oldPredict(title, body string, mentioned []string, t float64) Prediction {
	ex := s.fb.oldExtract(title, body, mentioned)
	if p, done := s.gatePrediction(ex); done {
		return p
	}
	if useCPD, pWrong := useCPDJoined(s.selector, title, body); useCPD {
		h := s.sourceHealth(t)
		if p, bad := s.degradedPrediction(h, &ex); bad {
			return p
		}
		p := s.predictCPDPath(&memo{ex: ex}, t, pWrong)
		p.Health, p.HasHealth = h, true
		return p
	}
	v := s.getVec()
	defer s.putVec(v)
	h := s.featurizeWithImputationInto(v, &memo{ex: ex}, t)
	if p, bad := s.degradedPrediction(h, &ex); bad {
		return p
	}
	p := s.oldPredictRF(*v, ex)
	p.Health, p.HasHealth = h, true
	return p
}

// TestPredictMatchesOldPath: every field of every prediction of the fixture
// — verdict, confidence, components, explanation string, health — equals the
// old answer path's, single and batched, and both labels' explanations of
// every held-out vector do.
func TestPredictMatchesOldPath(t *testing.T) {
	f := getFixture(t)
	// A second world, one whose model selector found something to learn: it
	// reads the shared text and sends a few incidents down the CPD+ path.
	gen := cloudsim.New(cloudsim.Params{Seed: 3, Days: 40, IncidentsPerDay: 8})
	log := gen.Generate()
	live, err := Train(TrainOptions{
		Config: f.scout.cfg, Topology: gen.Topology(), Source: gen.Telemetry(),
		Incidents: log.Incidents[:200], Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	models := map[string]int{}
	compare := func(s *Scout, ins []*incident.Incident) {
		t.Helper()
		var reqs []BatchRequest
		var want []Prediction
		for _, in := range ins {
			w := s.oldPredict(in.Title, in.Body, in.InitialComponents, in.CreatedAt)
			got := s.Predict(in.Title, in.Body, in.InitialComponents, in.CreatedAt)
			if !reflect.DeepEqual(plain(got), w) {
				t.Fatalf("incident %s:\nPredict %+v\nold     %+v", in.ID, plain(got), w)
			}
			models[got.Model]++
			reqs = append(reqs, BatchRequest{Title: in.Title, Body: in.Body, Components: in.InitialComponents, Time: in.CreatedAt})
			want = append(want, w)
		}
		for i, got := range s.PredictBatch(reqs) {
			if !reflect.DeepEqual(plain(got), want[i]) {
				t.Fatalf("PredictBatch item %d differs from the old answer path", i)
			}
		}
	}
	compare(f.scout, append(append([]*incident.Incident(nil), f.train...), f.test...))
	compare(live, log.Incidents)
	if models["rf"] < 1000 || models["cpd+"] < 3 || models["none"] == 0 {
		t.Fatalf("predictions by model: %v", models)
	}
	s := f.scout
	signals := 0
	for _, in := range f.test {
		ex := s.fb.Extract(in.Title, in.Body, in.Components)
		if ex.Empty {
			continue
		}
		x := s.fb.Featurize(ex, in.CreatedAt)
		for _, label := range []bool{false, true} {
			p := Prediction{Responsible: label}
			s.explainRF(&p, x)
			got, w := p.Explanation(), s.oldExplainRF(x, label)
			if got != w {
				t.Fatalf("incident %s: explanation\n%q\nold\n%q", in.ID, got, w)
			}
			signals += strings.Count(got, " (")
		}
	}
	if signals < 1000 {
		t.Fatalf("only %d signals rendered", signals)
	}
}

// TestExplanationMatchesStringOracle: every held-out RF answer's
// explanation — appended behind what a buffer already holds, and as the
// string logs read — is the text stringExplainRF made from the same
// imputed vector, and the rendering of kept signals is fmt's for values
// and names a trained forest rarely produces: NaN, ±Inf, ±0, negatives
// that round to -0.000, halves at the third decimal, and names long enough
// to outgrow the encoder's stack buffer.
func TestExplanationMatchesStringOracle(t *testing.T) {
	f := getFixture(t)
	s := f.scout
	rf := 0
	for _, in := range f.test {
		p := s.PredictIncident(in)
		if p.Model != "rf" {
			continue
		}
		rf++
		m := memo{ex: s.fb.Extract(in.Title, in.Body, in.InitialComponents)}
		v := s.getVec()
		s.featurizeWithImputationInto(v, &m, in.CreatedAt)
		want := s.stringExplainRF(*v, p.Responsible)
		s.putVec(v)
		if got := string(p.AppendExplanation([]byte("held: "))); got != "held: "+want {
			t.Fatalf("incident %s: AppendExplanation\n%q\noracle\n%q", in.ID, got, "held: "+want)
		}
		if got := p.Explanation(); got != want {
			t.Fatalf("incident %s: Explanation\n%q\noracle\n%q", in.ID, got, want)
		}
	}
	if rf < len(f.test)/2 {
		t.Fatalf("only %d of %d held-out answers came from the random forest", rf, len(f.test))
	}

	long := strings.Repeat("dataset_with_a_long_name.", 24) + "max"
	for _, signals := range [][]forest.Contribution{
		nil,
		{{Feature: "pingmesh.drop_rate", Value: math.NaN()}},
		{{Feature: "a", Value: math.Inf(1)}, {Feature: "b", Value: math.Inf(-1)}},
		{{Feature: "zero", Value: 0}, {Feature: "negzero", Value: math.Copysign(0, -1)}},
		{{Feature: "tiny", Value: -0.0004}, {Feature: "tinier", Value: -1e-300}, {Feature: "half", Value: -0.0005}},
		{{Feature: "up", Value: 0.0005}, {Feature: "round", Value: 0.12349999}, {Feature: "big", Value: -123456.7895}},
		{{Feature: long, Value: 0.25}, {Feature: long + "2", Value: -0.125}, {Feature: "\u00e9<&>\"", Value: 1}},
	} {
		for _, label := range []bool{false, true} {
			p := Prediction{Responsible: label}
			p.rf.team = "Phy<Net>"
			p.rf.n = copy(p.rf.signals[:], signals)
			var parts []string
			for _, c := range signals {
				parts = append(parts, fmt.Sprintf("%s (%+.3f)", c.Feature, c.Value))
			}
			direction := "points away from"
			if label {
				direction = "points to"
			}
			want := fmt.Sprintf("random forest %s %s", direction, p.rf.team)
			if len(parts) > 0 {
				want += "; strongest signals: " + strings.Join(parts, ", ")
			}
			want += ". Known false negatives: transient issues already resolved, symptoms not covered by monitoring, incidents too broad in scope."
			if got := p.Explanation(); got != want {
				t.Errorf("signals %v: explanation\n%q\nfmt\n%q", signals, got, want)
			}
		}
	}
	if p := (Prediction{Text: "kept as text"}); p.Explanation() != "kept as text" || string(p.AppendExplanation(nil)) != "kept as text" {
		t.Errorf("a text explanation reads %q", p.Explanation())
	}
}
