// Package forest implements CART decision trees and random forests with
// weighted Gini splitting, bootstrap aggregation, mean-decrease-in-impurity
// feature importance, and per-prediction feature contributions following
// Palczewska et al. [57] — the explanation mechanism §8 of the paper calls
// "crucial" for operator acceptance.
//
// Random forests are the supervised model of the PhyNet Scout (§5.2.1): they
// learn the relationship between an incident's per-component telemetry
// statistics and whether the team is responsible, resist over-fitting, and
// can explain each routing decision.
package forest

import (
	"errors"
	"fmt"
	"log"
	"math"
	"slices"
	"strconv"
	"sync"

	"scouts/internal/ml/mlcore"
	"scouts/internal/parallel"
)

// Params configure random-forest training.
type Params struct {
	// NumTrees is the ensemble size (default 100).
	NumTrees int
	// MaxDepth bounds tree depth (default 12).
	MaxDepth int
	// MinLeaf is the minimum total sample weight per leaf (default 2).
	MinLeaf float64
	// MTry is the number of features examined per split; 0 selects
	// round(sqrt(dim)), the standard classification heuristic.
	MTry int
	// Seed makes training deterministic.
	Seed int64
	// Bootstrap resamples the training set per tree when true (default).
	// DisableBootstrap turns it off (each tree sees all samples, useful in
	// tests that need exact reproducibility of a single tree).
	DisableBootstrap bool
	// Workers bounds the goroutines used to grow trees; 0 selects
	// runtime.GOMAXPROCS(0). Training output is bit-identical for every
	// worker count: per-tree seeds are pre-drawn in tree order and feature
	// importance is accumulated per tree, then merged in tree order. The
	// knob is excluded from snapshots, where a CPD+ model's params travel
	// as JSON: it describes the training machine, not the model.
	Workers int `json:"-"`
}

func (p Params) withDefaults() Params {
	if p.NumTrees <= 0 {
		p.NumTrees = 100
	}
	if p.MaxDepth <= 0 {
		p.MaxDepth = 12
	}
	if p.MinLeaf <= 0 {
		p.MinLeaf = 2
	}
	return p
}

// Forest is a trained random-forest classifier. Its trees live only in
// the flat SoA arrays (flat.go): Train flattens the pointer trees it grows,
// and ForestFromBinary (pack.go) loads the same arrays, so a trained forest
// and its reloaded pack are one representation.
type Forest struct {
	features []string
	imp      []float64 // normalized mean decrease in impurity
	flat     *flatForest
}

// treeCount is the ensemble size (0 for the zero Forest).
func (f *Forest) treeCount() int {
	if f.flat == nil {
		return 0
	}
	return len(f.flat.roots)
}

// logf reports the forest's defensive error paths (dimension-mismatched
// inputs). Swappable so tests can assert on — or silence — it.
var logf = log.Printf

// ErrEmptyTrainingSet is returned when Train is called with no samples.
var ErrEmptyTrainingSet = errors.New("forest: empty training set")

// Trainer is the working memory of forest training: the presorted columns,
// a split context per worker, and one forest's per-tree parameters, trees
// and importance rows. A caller training several forests in a row —
// core.Train grows four — trains them through one Trainer, whose buffers
// grow to the largest forest and serve every one, so a forest allocates
// little beyond what it keeps (its flat arrays and importance). The zero
// Trainer is ready; it trains one forest at a time.
type Trainer struct {
	cols  mlcore.Columns
	ctxs  []*splitCtx // by worker
	tps   []treeParams
	trees []tree
	imp   []float64 // the trees' importance rows, back to back
	// renumber is flatten's scratch: a tree's renumbering, then its queue.
	renumber []int32
}

// Train grows a random forest on the dataset.
func Train(d *mlcore.Dataset, p Params) (*Forest, error) {
	return new(Trainer).Train(d, p)
}

// Train grows a random forest on the dataset in the trainer's memory. The
// kernel shares one read-only column-major presort across all trees and
// gives each worker a split context; a context carries nothing from one
// tree to the next, so which worker grows which tree cannot perturb a
// tree and the forest is the same at any worker count.
func (tr *Trainer) Train(d *mlcore.Dataset, p Params) (*Forest, error) {
	if d.Len() == 0 {
		return nil, ErrEmptyTrainingSet
	}
	p = p.withDefaults()
	// Resolved once: the contexts are sized by it and grow's workers index
	// them, so the two must not read GOMAXPROCS apart.
	p.Workers = parallel.Workers(p.Workers)
	tr.cols.Load(d, p.Workers)
	for len(tr.ctxs) < min(p.Workers, p.NumTrees) {
		tr.ctxs = append(tr.ctxs, new(splitCtx))
	}
	for _, ctx := range tr.ctxs {
		ctx.load(&tr.cols)
	}
	trees, imp := tr.grow(d, p, func(w int, tp *treeParams) tree {
		ctx := tr.ctxs[w]
		tp.draw(ctx.idx)
		return buildTree(ctx, tp)
	})
	return &Forest{features: d.Features, imp: imp, flat: tr.flatten(trees)}, nil
}

// grow is Train's growing step: it grows p's trees, each by build on a
// worker from its parameters (whose draw is the tree's bootstrap sample),
// and returns them in tree order — in the trainer's memory, until its next
// forest — with the normalized feature importance. Train flattens the
// trees and drops them; the test oracles keep them.
func (tr *Trainer) grow(d *mlcore.Dataset, p Params, build func(w int, tp *treeParams) tree) ([]tree, []float64) {
	p = p.withDefaults()
	mtry := p.MTry
	if mtry <= 0 {
		mtry = int(math.Round(math.Sqrt(float64(d.Dim()))))
		if mtry < 1 {
			mtry = 1
		}
	}
	// Pre-draw every per-tree seed in tree order. The seed stream depends
	// only on p.Seed, so the parallel schedule below cannot perturb it and
	// tree t is grown from the same generator state at any worker count.
	seedGen := newRNG(uint64(p.Seed))
	tps := resize(tr.tps, p.NumTrees)
	// Each tree accumulates importance privately, in its own row of one
	// block; the merge below runs in tree order so the floating-point sums
	// are identical for every worker count (float addition is not
	// associative — a shared accumulator or per-worker accumulators would
	// make importances schedule-dependent).
	dim := d.Dim()
	treeImp := resize(tr.imp, p.NumTrees*dim)
	clear(treeImp)
	for t := range tps {
		tps[t] = treeParams{
			maxDepth:  p.MaxDepth,
			minLeaf:   p.MinLeaf,
			mtry:      mtry,
			featImp:   treeImp[t*dim : (t+1)*dim : (t+1)*dim],
			rng:       newRNG(seedGen.next()),
			bootstrap: !p.DisableBootstrap,
		}
	}
	trees := resize(tr.trees, p.NumTrees)
	parallel.ForWorker(p.Workers, p.NumTrees, func(w, t int) {
		trees[t] = build(w, &tps[t])
	})
	tr.tps, tr.imp, tr.trees = tps, treeImp, trees
	imp := make([]float64, dim)
	for t := range tps {
		for i, v := range tps[t].featImp {
			imp[i] += v
		}
	}
	// Normalize importance to sum to 1 (when any split happened).
	var total float64
	for _, v := range imp {
		total += v
	}
	if total > 0 {
		for i := range imp {
			imp[i] /= total
		}
	}
	return trees, imp
}

// resize returns s with length n, reusing its array when it has the room.
// What the array held is left in place: a caller overwrites it or relies
// on it being zero.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// PredictProb returns the forest's positive-class probability for x,
// traversing the flat SoA kernel (flat.go). A vector of the wrong
// dimension answers the training prior with a logged error instead of
// panicking deep in traversal.
func (f *Forest) PredictProb(x []float64) float64 {
	if f.treeCount() == 0 {
		return 0
	}
	if len(x) != len(f.features) {
		logf("forest: dimension mismatch: got %d features, trained on %d; answering the training prior", len(x), len(f.features))
		return f.flat.prior
	}
	return f.flat.predictProb(x)
}

// PredictProbBatch scores every vector of xs. Results are written into out
// when it has the capacity (the serving path passes a pooled buffer for a
// zero-allocation call) and the filled slice is returned. It is a loop
// over PredictProb — one traversal serves single and batched calls — so
// every probability is bit-identical to the single call's, and a
// dimension-mismatched vector answers the training prior.
func (f *Forest) PredictProbBatch(xs [][]float64, out []float64) []float64 {
	if cap(out) >= len(xs) {
		out = out[:len(xs)]
	} else {
		out = make([]float64, len(xs))
	}
	for i, x := range xs {
		out[i] = f.PredictProb(x)
	}
	return out
}

// Predict implements mlcore.Classifier: the label and a confidence in
// [0.5, 1] for that label.
func (f *Forest) Predict(x []float64) (bool, float64) {
	p := f.PredictProb(x)
	if p >= 0.5 {
		return true, p
	}
	return false, 1 - p
}

// Importance returns the normalized mean-decrease-in-impurity importance of
// every feature, aligned with Features().
func (f *Forest) Importance() []float64 {
	out := make([]float64, len(f.imp))
	copy(out, f.imp)
	return out
}

// Features returns the feature names the forest was trained on.
func (f *Forest) Features() []string { return f.features }

// Contribution is one feature's share of a prediction's deviation from the
// training prior, used to explain routing decisions to operators.
type Contribution struct {
	Feature string
	Value   float64 // signed contribution to the positive-class probability
}

// Explain decomposes the prediction for x as prior + sum(contributions)
// following Palczewska et al., traversing the flat SoA kernel. It returns
// the prior and the per-feature contributions sorted by decreasing
// absolute value. A dimension-mismatched vector answers the training prior
// with no contributions (and a logged error) instead of panicking.
func (f *Forest) Explain(x []float64) (prior float64, contribs []Contribution) {
	if f.treeCount() == 0 {
		return 0, nil
	}
	if len(x) != len(f.features) {
		logf("forest: dimension mismatch in Explain: got %d features, trained on %d; answering the training prior", len(x), len(f.features))
		return f.flat.prior, nil
	}
	raw := f.accumulate(x)
	prior, contribs = f.finishExplain(raw.prior, raw.sums)
	rawPool.Put(raw)
	return prior, contribs
}

// rawContribs is one explanation's accumulator: per feature, the summed
// probability steps of the splits on it over the trees, and the summed root
// probabilities. Pooled: an explanation is one per prediction.
type rawContribs struct {
	sums  []float64
	prior float64
}

var rawPool = sync.Pool{New: func() any { return new(rawContribs) }}

// accumulate walks x down every tree, in tree order. The caller returns the
// accumulator to rawPool.
func (f *Forest) accumulate(x []float64) *rawContribs {
	raw := rawPool.Get().(*rawContribs)
	raw.sums = slices.Grow(raw.sums[:0], len(f.features))[:len(f.features)]
	clear(raw.sums)
	raw.prior = 0
	for _, r := range f.flat.roots {
		raw.prior += f.flat.contributions(r, x, raw.sums)
	}
	return raw
}

// finishExplain normalizes the accumulated prior and raw contributions and
// sorts them by decreasing absolute value — shared with the test oracle's
// pointer-tree Explain, so the two can only differ if the traversals do.
func (f *Forest) finishExplain(prior float64, raw []float64) (float64, []Contribution) {
	count := float64(f.treeCount())
	prior /= count
	contribs := make([]Contribution, 0, len(raw))
	for i, v := range raw {
		v /= count
		if v != 0 {
			contribs = append(contribs, Contribution{Feature: f.features[i], Value: v})
		}
	}
	slices.SortFunc(contribs, func(a, b Contribution) int {
		av, bv := math.Abs(a.Value), math.Abs(b.Value)
		switch {
		case av > bv:
			return -1
		case bv > av:
			return 1
		default:
			return 0
		}
	})
	return prior, contribs
}

// TopSignals appends to top the first k contributions of Explain(x)'s
// ranking whose feature skip (when non-nil) does not reject: what an
// explanation prints, without ranking the features it will not print. Each
// Feature is the forest's own name string, so an answer can keep them.
func (f *Forest) TopSignals(top []Contribution, x []float64, k int, skip func(feature string) bool) []Contribution {
	if f.treeCount() == 0 || k <= 0 {
		return top
	}
	if len(x) != len(f.features) {
		logf("forest: dimension mismatch in Explain: got %d features, trained on %d; answering the training prior", len(x), len(f.features))
		return top
	}
	raw := f.accumulate(x)
	top = f.selectTop(top, raw, k, skip)
	rawPool.Put(raw)
	return top
}

// selectTop is TopSignals over accumulated contributions. The k are kept by
// insertion on strict >. Two candidates of equal magnitude have no order of
// their own — Explain's is whatever its unstable sort leaves — so when a
// candidate ties with a kept one the answer is read off that very sort
// instead; likewise when any contribution is a NaN (a loaded forest's node
// probabilities are not checked for one), under which the sort's comparison
// orders nothing consistently.
func (f *Forest) selectTop(top []Contribution, raw *rawContribs, k int, skip func(feature string) bool) []Contribution {
	count := float64(f.treeCount())
	base := len(top)
	for i, v := range raw.sums {
		v /= count
		if math.IsNaN(v) {
			return f.sortedTop(top[:base], raw, k, skip)
		}
		if v == 0 || (skip != nil && skip(f.features[i])) {
			continue
		}
		a := math.Abs(v)
		j := len(top)
		for j > base && a > math.Abs(top[j-1].Value) {
			j--
		}
		if j > base && a == math.Abs(top[j-1].Value) {
			return f.sortedTop(top[:base], raw, k, skip)
		}
		if j == base+k {
			continue
		}
		if len(top) < base+k {
			top = append(top, Contribution{})
		}
		copy(top[j+1:], top[j:])
		top[j] = Contribution{Feature: f.features[i], Value: v}
	}
	return top
}

// sortedTop is selectTop by Explain's full ranking.
func (f *Forest) sortedTop(top []Contribution, raw *rawContribs, k int, skip func(feature string) bool) []Contribution {
	_, contribs := f.finishExplain(raw.prior, raw.sums)
	for _, c := range contribs {
		if k == 0 {
			break
		}
		if skip == nil || !skip(c.Feature) {
			top = append(top, c)
			k--
		}
	}
	return top
}

// AppendTopSignals appends the k strongest signals behind the prediction
// for x as an operator reads them (AppendSignals of TopSignals). CPD+'s
// explanation prints this list; the random forest's answer keeps the
// TopSignals and renders them when it is written.
func (f *Forest) AppendTopSignals(dst []byte, x []float64, k int, skip func(feature string) bool) []byte {
	var buf [4]Contribution
	return AppendSignals(dst, f.TopSignals(buf[:0], x, k, skip))
}

// AppendSignals appends signals as an operator reads them — "feature
// (+0.123), feature (-0.045)", each with its signed contribution to three
// decimals — and nothing when there are none.
func AppendSignals(dst []byte, signals []Contribution) []byte {
	for i, c := range signals {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = append(dst, c.Feature...)
		dst = append(dst, " ("...)
		dst = appendSigned(dst, c.Value)
		dst = append(dst, ')')
	}
	return dst
}

// appendSigned appends v as fmt's %+.3f prints it: always a sign, "-0.000"
// for a negative that rounds to zero, "+NaN".
func appendSigned(dst []byte, v float64) []byte {
	n := len(dst)
	dst = append(dst, '+') // room for the sign AppendFloat may not write
	dst = strconv.AppendFloat(dst, v, 'f', 3, 64)
	if dst[n+1] == '-' || dst[n+1] == '+' {
		dst = append(dst[:n], dst[n+1:]...)
	}
	return dst
}

// NumTrees reports the ensemble size.
func (f *Forest) NumTrees() int { return f.treeCount() }

// NumNodes reports the total node count across the ensemble (0 before
// training); scoutctl inspect surfaces it when dumping pack files.
func (f *Forest) NumNodes() int {
	if f.flat == nil {
		return 0
	}
	return len(f.flat.feature)
}

// String summarizes the forest for logs.
func (f *Forest) String() string {
	return fmt.Sprintf("RandomForest(trees=%d, dim=%d)", f.treeCount(), len(f.features))
}
