package forest

import (
	"math"
	"sort"

	"scouts/internal/ml/mlcore"
	"scouts/internal/parallel"
)

// The forest's test oracles, kept verbatim from the production code they
// once were and compared against by the differential tests (kernel_test.go,
// flat_test.go, property_test.go, golden_test.go):
//
//   - the seed (pre-presort) tree-growing kernel, which re-sorts a node's
//     samples for every candidate feature, behind TrainReference — Train as
//     it read when Params.ReferenceKernel selected this kernel;
//   - the pointer-tree traversals tree.predict / tree.contributions behind
//     PredictProbPointer / ExplainPointer.
//
// The exported names exist for golden_test.go, which lives in package
// forest_test because it imports the experiments lab.

// TrainReference is Train with the seed split kernel: the same seed
// stream, bootstrap draws, importance merge and flat derivation, with
// buildTreeReference in place of buildTree.
func TrainReference(d *mlcore.Dataset, p Params) (*Forest, error) {
	if d.Len() == 0 {
		return nil, ErrEmptyTrainingSet
	}
	p = p.withDefaults()
	mtry := p.MTry
	if mtry <= 0 {
		mtry = int(math.Round(math.Sqrt(float64(d.Dim()))))
		if mtry < 1 {
			mtry = 1
		}
	}
	f := &Forest{
		features: d.Features,
		imp:      make([]float64, d.Dim()),
		params:   p,
	}
	seedGen := newRNG(uint64(p.Seed))
	seeds := make([]uint64, p.NumTrees)
	for t := range seeds {
		seeds[t] = seedGen.next()
	}
	f.trees = make([]*tree, p.NumTrees)
	treeImp := make([][]float64, p.NumTrees)
	parallel.For(p.Workers, p.NumTrees, func(t int) {
		tp := &treeParams{
			maxDepth: p.MaxDepth,
			minLeaf:  p.MinLeaf,
			mtry:     mtry,
			featImp:  make([]float64, d.Dim()),
			rng:      newRNG(seeds[t]),
		}
		idx := make([]int, d.Len())
		if p.DisableBootstrap {
			for i := range idx {
				idx[i] = i
			}
		} else {
			for i := range idx {
				idx[i] = tp.rng.intn(d.Len())
			}
		}
		f.trees[t] = buildTreeReference(d, idx, tp)
		treeImp[t] = tp.featImp
	})
	for _, imp := range treeImp {
		for i, v := range imp {
			f.imp[i] += v
		}
	}
	var total float64
	for _, v := range f.imp {
		total += v
	}
	if total > 0 {
		for i := range f.imp {
			f.imp[i] /= total
		}
	}
	f.flat = newFlatForest(f.trees)
	return f, nil
}

// buildTreeReference grows a tree on the given sample indices of d using
// the per-node re-sorting kernel (O(mtry · n log n) per node).
func buildTreeReference(d *mlcore.Dataset, idx []int, p *treeParams) *tree {
	t := &tree{}
	t.growReference(d, idx, p, 0)
	return t
}

// growReference appends a subtree for idx and returns its root node index.
func (t *tree) growReference(d *mlcore.Dataset, idx []int, p *treeParams, depth int) int {
	var wSum, wPos float64
	for _, i := range idx {
		w := d.Samples[i].W()
		wSum += w
		if d.Samples[i].Y {
			wPos += w
		}
	}
	me := len(t.nodes)
	t.nodes = append(t.nodes, node{feature: -1, prob: safeDiv(wPos, wSum), weight: wSum})

	if depth >= p.maxDepth || wSum <= p.minLeaf || wPos == 0 || wPos == wSum {
		return me
	}
	feat, thr, gain := bestSplitReference(d, idx, p, wSum, wPos)
	if feat < 0 || gain <= p.minImpurity {
		return me
	}
	var leftIdx, rightIdx []int
	for _, i := range idx {
		if d.Samples[i].X[feat] <= thr {
			leftIdx = append(leftIdx, i)
		} else {
			rightIdx = append(rightIdx, i)
		}
	}
	if len(leftIdx) == 0 || len(rightIdx) == 0 {
		return me
	}
	if p.featImp != nil {
		p.featImp[feat] += gain * wSum
	}
	t.nodes[me].feature = feat
	t.nodes[me].threshold = thr
	l := t.growReference(d, leftIdx, p, depth+1)
	t.nodes[me].left = l
	r := t.growReference(d, rightIdx, p, depth+1)
	t.nodes[me].right = r
	return me
}

// bestSplitReference scans a random subset of features (mtry) and returns
// the split with the largest Gini gain, re-sorting the node's samples for
// every candidate feature.
func bestSplitReference(d *mlcore.Dataset, idx []int, p *treeParams, wSum, wPos float64) (feat int, thr, gain float64) {
	dim := d.Dim()
	mtry := p.mtry
	if mtry <= 0 || mtry > dim {
		mtry = dim
	}
	// Sample mtry distinct features by partial Fisher-Yates over a scratch
	// permutation.
	perm := make([]int, dim)
	for i := range perm {
		perm[i] = i
	}
	for i := 0; i < mtry; i++ {
		j := i + p.rng.intn(dim-i)
		perm[i], perm[j] = perm[j], perm[i]
	}

	parentGini := gini(wPos, wSum)
	feat, gain = -1, 0

	type pair struct {
		v float64
		w float64
		y bool
	}
	pairs := make([]pair, 0, len(idx))
	for f := 0; f < mtry; f++ {
		fi := perm[f]
		pairs = pairs[:0]
		for _, i := range idx {
			s := d.Samples[i]
			pairs = append(pairs, pair{v: s.X[fi], w: s.W(), y: s.Y})
		}
		// The golden bit-identity tests pin this kernel's behavior, and with
		// non-uniform boosting weights the left-sum accumulation order of
		// equal-valued pairs feeds floating-point rounding — swapping the
		// sort algorithm could reorder ties and change the reference splits.
		sort.Slice(pairs, func(a, b int) bool { return pairs[a].v < pairs[b].v })

		var lw, lp float64
		for k := 0; k < len(pairs)-1; k++ {
			lw += pairs[k].w
			if pairs[k].y {
				lp += pairs[k].w
			}
			if pairs[k].v == pairs[k+1].v {
				continue // cannot split between equal values
			}
			rw, rp := wSum-lw, wPos-lp
			if lw < p.minLeaf || rw < p.minLeaf {
				continue
			}
			g := parentGini - (lw/wSum)*gini(lp, lw) - (rw/wSum)*gini(rp, rw)
			if g > gain {
				gain = g
				feat = fi
				thr = (pairs[k].v + pairs[k+1].v) / 2
			}
		}
	}
	return feat, thr, gain
}

// predict returns the positive-class probability at the leaf x lands in.
func (t *tree) predict(x []float64) float64 {
	n := 0
	for {
		nd := t.nodes[n]
		if nd.feature < 0 {
			return nd.prob
		}
		if x[nd.feature] <= nd.threshold {
			n = nd.left
		} else {
			n = nd.right
		}
	}
}

// contributions implements the feature-contribution decomposition of
// Palczewska et al. ("Interpreting random forest models using a feature
// contribution method", 2013): prediction = root prior + sum over path of
// (child mean - parent mean), attributed to the split feature. It adds the
// per-feature contributions for x into out and returns the root prior.
func (t *tree) contributions(x []float64, out []float64) float64 {
	n := 0
	prior := t.nodes[0].prob
	for {
		nd := t.nodes[n]
		if nd.feature < 0 {
			return prior
		}
		var next int
		if x[nd.feature] <= nd.threshold {
			next = nd.left
		} else {
			next = nd.right
		}
		out[nd.feature] += t.nodes[next].prob - nd.prob
		n = next
	}
}

// PredictProbPointer is the pointer-tree traversal the flat kernel's
// PredictProb must match bit for bit (DESIGN.md §8).
func (f *Forest) PredictProbPointer(x []float64) float64 {
	if len(f.trees) == 0 {
		return 0
	}
	s := 0.0
	for _, t := range f.trees {
		s += t.predict(x)
	}
	return s / float64(len(f.trees))
}

// ExplainPointer is Explain over the pointer-tree traversal.
func (f *Forest) ExplainPointer(x []float64) (prior float64, contribs []Contribution) {
	if len(f.trees) == 0 {
		return 0, nil
	}
	raw := make([]float64, len(f.features))
	for _, t := range f.trees {
		prior += t.contributions(x, raw)
	}
	return f.finishExplain(prior, raw)
}
