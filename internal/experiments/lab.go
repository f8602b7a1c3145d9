// Package experiments reproduces every table and figure of the paper's
// evaluation over the synthetic cloud. Each experiment is a pure function
// of a Lab — a generated trace plus the trained PhyNet Scout and the
// legacy NLP baseline — and returns a result type whose String() method
// prints the same rows or series the paper reports. cmd/repro and the
// repository benchmarks both drive these functions.
package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"scouts/internal/cloudsim"
	"scouts/internal/core"
	"scouts/internal/incident"
	"scouts/internal/metrics"
	"scouts/internal/ml/forest"
	"scouts/internal/ml/mlcore"
	"scouts/internal/parallel"
	"scouts/internal/text"
)

// LabParams size the reproduction.
type LabParams struct {
	// Seed fixes every random choice; the same seed regenerates identical
	// tables.
	Seed int64
	// Days of trace (default 180; the paper uses ~270).
	Days int
	// IncidentsPerDay (default 12).
	IncidentsPerDay float64
	// Workers bounds the goroutines used by training, featurization and
	// evaluation fan-out; 0 selects runtime.GOMAXPROCS(0). Every
	// experiment is bit-identical at any worker count.
	Workers int
}

func (p LabParams) withDefaults() LabParams {
	if p.Seed == 0 {
		p.Seed = 20200810 // SIGCOMM '20 started August 10, 2020
	}
	if p.Days <= 0 {
		p.Days = 180
	}
	if p.IncidentsPerDay <= 0 {
		p.IncidentsPerDay = 12
	}
	return p
}

// Lab is the shared experimental setup.
type Lab struct {
	Params LabParams
	Gen    *cloudsim.Generator
	Log    *incident.Log
	Cfg    *core.Config

	// Train/Test is the §7 split: half the PhyNet incidents and 35% of the
	// rest train; everything else tests.
	Train, Test []*incident.Incident

	Scout *core.Scout
	NLP   *NLPRouter

	// Cache memoizes featurization: NewLab fills it with every incident of
	// the trace (training memoises the train split, buildMatrices the test
	// split), the retraining experiments read it. Valid only while the
	// telemetry registry is untouched; nil disables it.
	Cache *core.FeatureCache

	// Feature matrices over the cached layout (trainable incidents only).
	TrainX, TestX [][]float64
	TrainY, TestY []bool
	TrainIDs      []string
	TestIDs       []string

	// Clock times the latency experiment (§6). nil means time.Now; tests
	// inject a stepping clock so every table is a pure function of the seed.
	Clock func() time.Time
}

// Team is the Scout's team in every experiment.
const Team = cloudsim.TeamPhyNet

// NewLab generates the trace, splits it per §7, and trains the PhyNet
// Scout and the NLP baseline.
func NewLab(p LabParams) (*Lab, error) {
	p = p.withDefaults()
	lab := &Lab{Params: p, Cache: core.NewFeatureCache()}
	lab.Gen = cloudsim.New(cloudsim.Params{
		Seed: p.Seed, Days: p.Days, IncidentsPerDay: p.IncidentsPerDay,
	})
	lab.Log = lab.Gen.Generate()

	cfg, err := core.ParseConfig(core.DefaultPhyNetConfig)
	if err != nil {
		return nil, err
	}
	lab.Cfg = cfg

	// §7 split: to counter class imbalance, only 35% of non-PhyNet
	// incidents train; half of the PhyNet incidents train.
	rng := rand.New(rand.NewSource(p.Seed + 1))
	for _, in := range lab.Log.Incidents {
		frac := 0.35
		if in.OwnerLabel == Team {
			frac = 0.5
		}
		if rng.Float64() < frac {
			lab.Train = append(lab.Train, in)
		} else {
			lab.Test = append(lab.Test, in)
		}
	}

	lab.Scout, err = core.Train(core.TrainOptions{
		Config:    cfg,
		Topology:  lab.Gen.Topology(),
		Source:    lab.Gen.Telemetry(),
		Incidents: lab.Train,
		Seed:      p.Seed + 2,
		Cache:     lab.Cache,
		Workers:   p.Workers,
	})
	if err != nil {
		return nil, err
	}

	// The legacy NLP recommender trains on the same incidents' text.
	var docs, teams []string
	for _, in := range lab.Train {
		docs = append(docs, incidentText(in))
		teams = append(teams, in.OwnerLabel)
	}
	lab.NLP, err = TrainNLPRouter(docs, teams, text.VocabOptions{MinDocFreq: 2})
	if err != nil {
		return nil, err
	}

	lab.buildMatrices()
	return lab, nil
}

// buildMatrices assembles the train and test feature matrices of the
// model-comparison experiments through the lab's cache: the train split's
// vectors are the ones core.Train has just memoised, the test split's are
// computed here and kept, so the retraining replays find both warm.
// Featurization is per-incident pure, so it fans out across workers and
// the matrices are assembled in incident order afterwards.
func (lab *Lab) buildMatrices() {
	fb := lab.Scout.Builder()
	feat := func(ins []*incident.Incident) (xs [][]float64, ys []bool, ids []string) {
		rows := parallel.Map(lab.Params.Workers, len(ins), func(i int) []float64 {
			return lab.Cache.Features(fb, ins[i])
		})
		for i, x := range rows {
			if x == nil {
				continue // excluded, or no components: not trainable
			}
			xs = append(xs, x)
			ys = append(ys, ins[i].OwnerLabel == Team)
			ids = append(ids, ins[i].ID)
		}
		return xs, ys, ids
	}
	lab.TrainX, lab.TrainY, lab.TrainIDs = feat(lab.Train)
	lab.TestX, lab.TestY, lab.TestIDs = feat(lab.Test)
}

// TrainSet materializes the cached training matrix as an mlcore.Dataset.
func (lab *Lab) TrainSet() *mlcore.Dataset {
	d := mlcore.NewDataset(lab.Scout.FeatureNames())
	for i := range lab.TrainX {
		d.MustAdd(mlcore.Sample{X: lab.TrainX[i], Y: lab.TrainY[i], ID: lab.TrainIDs[i]})
	}
	return d
}

// EvalVectors scores a classifier over the cached test matrix, fanning the
// (read-only) predictions out across the lab's workers.
func (lab *Lab) EvalVectors(clf mlcore.Classifier) metrics.Confusion {
	preds := parallel.Map(lab.Params.Workers, len(lab.TestX), func(i int) bool {
		pred, _ := clf.Predict(lab.TestX[i])
		return pred
	})
	var c metrics.Confusion
	for i, pred := range preds {
		c.Add(pred, lab.TestY[i])
	}
	return c
}

// RNG derives a deterministic rng for an experiment.
func (lab *Lab) RNG(salt int64) *rand.Rand {
	return rand.New(rand.NewSource(lab.Params.Seed ^ salt))
}

// DefaultForest is the forest parameterization experiments reuse when they
// retrain on cached matrices.
func (lab *Lab) DefaultForest(seed int64) forest.Params {
	return forest.Params{NumTrees: 100, MaxDepth: 14, Seed: seed, Workers: lab.Params.Workers}
}

// --- small report helpers ---------------------------------------------

// Series is a printable (x, y) series for figure reproduction.
type Series struct {
	Name   string
	Points [][2]float64
}

// renderSeries prints series as aligned columns.
func renderSeries(title string, series []Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for _, s := range series {
		fmt.Fprintf(&b, "  series %s\n", s.Name)
		for _, p := range s.Points {
			fmt.Fprintf(&b, "    %10.4f  %8.4f\n", p[0], p[1])
		}
	}
	return b.String()
}

// cdfSeries samples an empirical CDF at n evenly spaced quantiles.
func cdfSeries(name string, sample []float64, n int) Series {
	c := NewCDF(sample)
	return Series{Name: name, Points: c.Points(n)}
}

// sortedCopy returns a sorted copy.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}
