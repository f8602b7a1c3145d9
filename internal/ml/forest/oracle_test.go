package forest

import (
	"sort"

	"scouts/internal/ml/mlcore"
)

// The forest's test oracles, kept verbatim from the production code they
// once were and compared against by the differential tests (kernel_test.go,
// flat_test.go, property_test.go, golden_test.go):
//
//   - the seed (pre-presort) tree-growing kernel, which re-sorts a node's
//     samples for every candidate feature, behind TrainReference — Train as
//     it read when Params.ReferenceKernel selected this kernel;
//   - the pointer-tree traversals tree.predict / tree.contributions behind
//     PointerForest's PredictProbPointer / ExplainPointer, over the trees
//     Train's growing step (growTrees) returns before Train flattens them.
//
// The exported names exist for golden_test.go, which lives in package
// forest_test because it imports the experiments lab.

// TrainReference is Train with the seed split kernel: the same seed
// stream, bootstrap draws, importance merge and flattening, with
// buildTreeReference in place of buildTree.
func TrainReference(d *mlcore.Dataset, p Params) (*Forest, error) {
	if d.Len() == 0 {
		return nil, ErrEmptyTrainingSet
	}
	trees, imp := growTrees(d, p, func(tp *treeParams) tree {
		draw := make([]int32, d.Len())
		tp.draw(draw)
		idx := make([]int, len(draw))
		for i, row := range draw {
			idx[i] = int(row)
		}
		return *buildTreeReference(d, idx, tp)
	})
	return &Forest{features: d.Features, imp: imp, flat: newFlatForest(trees)}, nil
}

// PointerForest is a trained forest beside the pointer trees it was
// flattened from.
type PointerForest struct {
	*Forest
	trees []tree
}

// TrainPointer is Train keeping the pointer trees: it runs Train's growing
// step with Train's split kernel, and flattens the trees as Train does.
func TrainPointer(d *mlcore.Dataset, p Params) *PointerForest {
	cols := mlcore.NewColumns(d, p.Workers)
	trees, imp := growTrees(d, p, func(tp *treeParams) tree {
		ctx := newSplitCtx(cols)
		tp.draw(ctx.idx)
		return buildTree(ctx, tp)
	})
	return &PointerForest{
		Forest: &Forest{features: d.Features, imp: imp, flat: newFlatForest(trees)},
		trees:  trees,
	}
}

// reset loads a sample multiset of the test's own into the context, in
// draw order, in place of a tree's draw.
func (c *splitCtx) reset(idx []int) {
	for i, row := range idx {
		c.idx[i] = int32(row)
	}
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
	t.nodes = append(t.nodes, node{feature: -1, prob: safeDiv(wPos, wSum)})

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
func (f *PointerForest) PredictProbPointer(x []float64) float64 {
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
func (f *PointerForest) ExplainPointer(x []float64) (prior float64, contribs []Contribution) {
	if len(f.trees) == 0 {
		return 0, nil
	}
	raw := make([]float64, len(f.features))
	for _, t := range f.trees {
		prior += t.contributions(x, raw)
	}
	return f.finishExplain(prior, raw)
}
