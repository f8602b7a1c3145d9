package forest

import (
	"math"
	"math/rand"
	"testing"

	"scouts/internal/ml/mlcore"
)

// propertyDataset mixes the column kinds that stress a traversal: two
// tie-heavy columns (a constant, a four-valued integer), two continuous
// ones, and one spanning denormals to 1e300. Labels are mostly noise, so
// trees keep splitting until MaxDepth stops them.
func propertyDataset(n int, rng *rand.Rand) *mlcore.Dataset {
	d := mlcore.NewDataset([]string{"const", "quant", "norm", "unif", "wide"})
	wide := []float64{5e-324, -5e-324, 2.5e-310, 1e-300, -1e-300, 1, -1, 1e300, -1e300}
	for i := 0; i < n; i++ {
		x := []float64{
			1,
			float64(rng.Intn(4)),
			rng.NormFloat64(),
			rng.Float64(),
			wide[rng.Intn(len(wide))] * float64(1+rng.Intn(3)),
		}
		y := rng.Float64() < 0.5
		if rng.Float64() < 0.3 {
			y = x[2] > 0
		}
		d.MustAdd(mlcore.Sample{X: x, Y: y})
	}
	return d
}

// propertyProbes draws vectors from the values a comparison can get wrong:
// NaN, ±Inf, ±0, denormals, and — per coordinate — a threshold the forest
// actually splits that feature on, plus its neighbours one ulp either side.
func propertyProbes(f *Forest, n int, rng *rand.Rand) [][]float64 {
	dim := len(f.features)
	thresholds := make([][]float64, dim)
	for _, t := range f.trees {
		for _, nd := range t.nodes {
			if nd.feature >= 0 {
				thresholds[nd.feature] = append(thresholds[nd.feature], nd.threshold)
			}
		}
	}
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		5e-324, -5e-324, 2.5e-310, math.MaxFloat64, -math.MaxFloat64}
	xs := make([][]float64, n)
	for i := range xs {
		x := make([]float64, dim)
		for j := range x {
			switch k := rng.Intn(6); {
			case k == 0:
				x[j] = special[rng.Intn(len(special))]
			case k <= 3 && len(thresholds[j]) > 0:
				t := thresholds[j][rng.Intn(len(thresholds[j]))]
				x[j] = [3]float64{t, math.Nextafter(t, math.Inf(1)), math.Nextafter(t, math.Inf(-1))}[rng.Intn(3)]
			case k == 4:
				x[j] = float64(rng.Intn(5) - 1)
			default:
				x[j] = rng.NormFloat64() * 2
			}
		}
		xs[i] = x
	}
	return xs
}

// TestDifferentialOracleFlatBatch is the traversal's property test: over
// random forests of every depth from 1 to 16 and hostile inputs, the
// pointer-tree oracle, PredictProb, PredictProbBatch and a pack-loaded
// copy of the forest agree bit for bit, and so do the oracle's and the
// flat kernel's explanations.
func TestDifferentialOracleFlatBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	deepest := 0
	for depth := 1; depth <= 16; depth++ {
		for _, boot := range []bool{true, false} {
			d := propertyDataset(150+rng.Intn(500), rng)
			f, err := Train(d, Params{
				NumTrees: 1 + rng.Intn(12), MaxDepth: depth, MinLeaf: 1,
				Seed: rng.Int63(), DisableBootstrap: !boot, Workers: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range f.trees {
				deepest = max(deepest, tr.depth())
			}
			blob, err := f.AppendBinary(nil)
			if err != nil {
				t.Fatal(err)
			}
			packed, err := ForestFromBinary(blob)
			if err != nil {
				t.Fatal(err)
			}
			xs := propertyProbes(f, 200, rng)
			batch := f.PredictProbBatch(xs, nil)
			for i, x := range xs {
				want := math.Float64bits(f.PredictProbPointer(x))
				for name, got := range map[string]float64{
					"PredictProb": f.PredictProb(x), "PredictProbBatch": batch[i], "pack-loaded PredictProb": packed.PredictProb(x),
				} {
					if math.Float64bits(got) != want {
						t.Fatalf("depth %d probe %v: %s = %v, oracle = %v", depth, x, name, got, math.Float64frombits(want))
					}
				}
				wp, wc := f.ExplainPointer(x)
				gp, gc := f.Explain(x)
				if math.Float64bits(gp) != math.Float64bits(wp) || len(gc) != len(wc) {
					t.Fatalf("depth %d probe %v: Explain prior %v with %d contributions, oracle %v with %d", depth, x, gp, len(gc), wp, len(wc))
				}
				for j := range gc {
					if gc[j].Feature != wc[j].Feature || math.Float64bits(gc[j].Value) != math.Float64bits(wc[j].Value) {
						t.Fatalf("depth %d probe %v contribution %d: %+v, oracle %+v", depth, x, j, gc[j], wc[j])
					}
				}
			}
		}
	}
	if deepest < 12 {
		t.Fatalf("deepest tree grown is %d levels; the generator no longer reaches deep forests", deepest)
	}
}

// TestPredictProbBatchZeroAllocs keeps the serving hot path's guarantee:
// with a caller-supplied out buffer a batch allocates nothing.
func TestPredictProbBatchZeroAllocs(t *testing.T) {
	d := xorDataset(600, 0.2, rand.New(rand.NewSource(53)))
	f, err := Train(d, Params{NumTrees: 40, MaxDepth: 10, Seed: 54})
	if err != nil {
		t.Fatal(err)
	}
	xs := probeVectors(64, 57)
	xs[5][1] = math.NaN()
	out := make([]float64, len(xs))
	if allocs := testing.AllocsPerRun(20, func() { f.PredictProbBatch(xs, out) }); allocs != 0 {
		t.Fatalf("%v allocs per batch, want 0", allocs)
	}
}
