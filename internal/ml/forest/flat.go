package forest

import (
	"math"
	"sync/atomic"
)

// flatForest is the inference-time representation of a trained forest: the
// pointer-addressed per-tree node slices flattened into one contiguous
// structure-of-arrays layout. The pointer trees remain the training
// representation and the snapshot format (snapshots stay byte-identical);
// the flat view is derived from them once, at Train or UnmarshalJSON time.
//
// Why SoA: at prediction time a traversal step reads exactly one feature
// index, one threshold and one child index — never the training-time node
// weight, and the probability only at the leaf. The 48-byte AoS node drags
// all of that through the cache per step; parallel arrays touch only the
// bytes the step uses, int32 indices halve them again, and concatenating
// every tree removes the per-tree slice-header indirection.
//
// Node order within a tree is breadth-first with the two children of every
// split allocated adjacently, so a single child index describes both:
// left = kids[n], right = kids[n]+1. Leaves self-loop (kids[n] == n,
// threshold +Inf), which is how predictTree recognises them.
//
// Determinism: the flat arrays hold bit-copies of the pointer nodes'
// values and the traversal visits the same splits in the same order, so
// each tree's answer — and the float64 accumulation order across trees —
// is identical to a pointer-tree walk's, float for float; the test oracle
// (oracle_test.go) is that walk (DESIGN.md §8).
type flatForest struct {
	feature   []int32   // split feature per node (0 for leaf: a harmless load)
	threshold []float64 // go left when x[feature] <= threshold; +Inf for leaf
	kids      []int32   // absolute left-child index; right is kids+1; self for leaf
	prob      []float64 // weighted positive fraction at the node

	roots []int32 // node index of each tree's root (trees are contiguous)
	prior float64 // mean root probability: the training prior, the
	// forest's answer when it cannot trust the input vector
}

// flatDerivations counts newFlatForest calls. It exists for the
// exactly-once-per-load guard tests (a JSON load must derive the flat
// view exactly once per forest; a binary pack load must derive it zero
// times) and has no other consumers.
var flatDerivations atomic.Int64

// FlatDerivations reports how many pointer-tree flattenings have run in
// this process — a test hook for the load-path derivation-count guards.
func FlatDerivations() int64 { return flatDerivations.Load() }

// newFlatForest flattens the trained pointer trees, re-ordering each
// tree's nodes breadth-first so sibling pairs are adjacent. Child indices
// are rebased from per-tree to forest-wide, which costs one add at build
// time and none at traversal time.
func newFlatForest(trees []*tree) *flatForest {
	flatDerivations.Add(1)
	total := 0
	for _, t := range trees {
		total += len(t.nodes)
	}
	ff := &flatForest{
		feature:   make([]int32, total),
		threshold: make([]float64, total),
		kids:      make([]int32, total),
		prob:      make([]float64, total),
		roots:     make([]int32, len(trees)),
	}
	base := int32(0)
	for t, tr := range trees {
		ff.roots[t] = base
		// Breadth-first renumbering: when a split is visited its children
		// get the next two flat slots, so the pair is always adjacent.
		order := make([]int32, len(tr.nodes)) // old index -> flat index
		queue := make([]int32, 1, len(tr.nodes))
		order[0] = base // grow appends the root first
		next := base + 1
		for qi := 0; qi < len(queue); qi++ {
			old := queue[qi]
			n := &tr.nodes[old]
			j := order[old]
			ff.prob[j] = n.prob
			if n.feature < 0 {
				ff.feature[j] = 0
				ff.threshold[j] = math.Inf(1)
				ff.kids[j] = j
				continue
			}
			ff.feature[j] = int32(n.feature)
			ff.threshold[j] = n.threshold
			ff.kids[j] = next
			order[n.left], order[n.right] = next, next+1
			next += 2
			queue = append(queue, int32(n.left), int32(n.right))
		}
		base += int32(len(tr.nodes))
	}
	if len(trees) > 0 {
		s := 0.0
		for _, r := range ff.roots {
			s += ff.prob[r]
		}
		ff.prior = s / float64(len(trees))
	}
	return ff
}

// predictTree walks one tree (by root node index) to its leaf probability
// — the forest's only production traversal. The comparison is written as
// !(x <= t) so a NaN feature value goes right, exactly as a pointer-tree
// if/else does.
func (ff *flatForest) predictTree(root int32, x []float64) float64 {
	feature, threshold, kids := ff.feature, ff.threshold, ff.kids
	n := root
	for {
		k := kids[n]
		if k == n {
			return ff.prob[n]
		}
		if !(x[feature[n]] <= threshold[n]) {
			k++
		}
		n = k
	}
}

// predictProb averages the leaf probabilities in tree order — the same
// accumulation order as the pointer-tree oracle, so the sum is bit-identical.
func (ff *flatForest) predictProb(x []float64) float64 {
	s := 0.0
	for _, r := range ff.roots {
		s += ff.predictTree(r, x)
	}
	return s / float64(len(ff.roots))
}

// contributions adds tree t's Palczewska feature-contribution
// decomposition for x into out and returns the tree's root prior —
// node-for-node the arithmetic of the oracle's tree.contributions.
func (ff *flatForest) contributions(root int32, x []float64, out []float64) float64 {
	prior := ff.prob[root]
	n := root
	for {
		k := ff.kids[n]
		if k == n {
			return prior
		}
		f := ff.feature[n]
		if !(x[f] <= ff.threshold[n]) {
			k++
		}
		out[f] += ff.prob[k] - ff.prob[n]
		n = k
	}
}
