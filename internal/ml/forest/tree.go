package forest

import "scouts/internal/ml/mlcore"

// node is one node of a CART tree as grow builds it, before Train
// flattens it (flat.go). Leaves have feature == -1.
type node struct {
	feature     int     // split feature index, -1 for leaf
	threshold   float64 // go left when x[feature] <= threshold
	left, right int     // child indices into tree.nodes
	prob        float64 // weighted fraction of positive samples reaching here
}

// tree is a CART classification tree trained with weighted Gini impurity.
type tree struct {
	nodes []node
}

type treeParams struct {
	maxDepth    int
	minLeaf     float64 // minimum total weight in a leaf
	mtry        int     // features considered per split; <=0 means all
	featImp     []float64
	rng         rng
	minImpurity float64
	bootstrap   bool // draw resamples the rows; without it every row once
}

// draw writes the tree's sample of len(dst) rows into dst in draw order:
// a bootstrap resample from the tree's generator, or every row once.
func (p *treeParams) draw(dst []int32) {
	for i := range dst {
		dst[i] = int32(i)
		if p.bootstrap {
			dst[i] = int32(p.rng.intn(len(dst)))
		}
	}
}

// rng is a tiny splitmix64 generator. The forest trains trees in parallel
// in principle; keeping a local generator per tree avoids math/rand lock
// contention and keeps training fully deterministic given the seed.
type rng struct{ state uint64 }

func newRNG(seed uint64) rng { return rng{state: seed ^ 0x9E3779B97F4A7C15} }

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// splitCtx is the per-tree working state of the split kernel. All buffers
// are sized once per training set (load) and reused for every node, so
// bestSplit and the node partition run with zero allocations. A splitCtx
// serves tree after tree, of one forest and then of the next: a tree's
// draw loads idx, every other buffer but the node blocks is written before
// it is read, counts is back to zero after every node, and a block is
// written again only by the next forest, once this one is flattened.
//
// idx[lo:hi] holds the rows of the node being grown in insertion order —
// the exact order the reference kernel's leftIdx/rightIdx slices would
// carry, which keeps every node weight sum bit-identical to it. "The
// reference kernel", here and below, is the seed kernel that re-sorted
// every node per candidate feature — now the test oracle in
// oracle_test.go.
type splitCtx struct {
	cols    *mlcore.Columns
	w       []float64 // cols.Weights()
	y       []bool    // cols.Labels()
	uniform bool      // cols.Uniform(): integer counting replaces weight sums
	n       int       // rows per tree (== dataset length; bootstrap resamples)

	idx    []int32  // node rows in insertion order
	ord    []int32  // one feature's arrangement of the node (arrange)
	tmp    []int32  // spill buffer for the stable idx partition
	counts []int32  // per-dataset-row multiplicity in the node (zeroed after use)
	side   []uint8  // per-dataset-row split side of the current node (1=left)
	perm   []int    // feature-sampling scratch
	nodes  []node   // the tree being grown; buildTree copies it out
	blocks [][]node // the blocks buildTree copies trees into, each twice the last
	block  int      // the block now being filled
}

// load points the context at a training set's columns, regrowing its
// buffers only when they are too small for it, and empties the node
// blocks: the trees cut from them before belong to a forest already
// flattened. counts needs no clearing: it is back to zero after every node,
// and fresh memory is zero.
func (c *splitCtx) load(cols *mlcore.Columns) {
	n := cols.Len()
	c.cols, c.w, c.y, c.uniform, c.n = cols, cols.Weights(), cols.Labels(), cols.Uniform(), n
	c.idx = resize(c.idx, n)
	c.ord = resize(c.ord, n+2) // +2: the expansion may overhang two slots
	c.tmp = resize(c.tmp, n)
	c.counts = resize(c.counts, n)
	c.side = resize(c.side, n)
	c.perm = resize(c.perm, cols.Dim())
	// A tree over n drawn rows has at most 2n-1 nodes: every leaf holds one.
	c.nodes = resize(c.nodes, 2*n)[:0]
	for i := range c.blocks {
		c.blocks[i] = c.blocks[i][:0]
	}
	c.block = 0
}

// countNode adds the node [lo, hi)'s row multiplicities into counts, the
// input of arrange.
func (c *splitCtx) countNode(lo, hi int) {
	for _, row := range c.idx[lo:hi] {
		c.counts[row]++
	}
}

// clearNode zeroes what countNode added.
func (c *splitCtx) clearNode(lo, hi int) {
	for _, row := range c.idx[lo:hi] {
		c.counts[row] = 0
	}
}

// arrange returns the rows of the node countNode loaded in feature f's
// presort order: value ascending, NaNs first, ties by row index, each row
// repeated by its multiplicity in the node (bootstrap duplicates
// adjacent). That is row for row what keeping every feature's presorted
// column stably partitioned down the tree would hold at this node, so the
// scan over it replays that kernel's arithmetic, weighted sums included.
// It walks the whole order, O(n) however small the node; sorting a small
// node's rows instead measured no faster on any training set the Scouts
// train (DESIGN.md §7.1).
//
// Not inlined: inlined into bestSplit, it made scoutbench's retrain
// workload read 6 % more CPU a prediction (DESIGN.md §7.1).
//
//go:noinline
func (c *splitCtx) arrange(f int) []int32 {
	dst, pos := c.ord, 0
	for _, row := range c.cols.Order(f) {
		// Write twice unconditionally and advance by the multiplicity:
		// counts of 0, 1 and 2 (92 % of a bootstrap draw) take no
		// data-dependent branch at all. The overhang lands past the node's
		// rows, at worst in ord's two spare slots.
		k := int(c.counts[row])
		dst[pos], dst[pos+1] = row, row
		for j := 2; j < k; j++ {
			dst[pos+j] = row
		}
		pos += k
	}
	return dst[:pos]
}

// buildTree grows a tree over the sample rows loaded into ctx, in the
// context's node buffer, and returns a copy the size of the tree, cut from
// the context's current block. A tree that does not fit moves on to the
// next block, made twice the size of the last when there is none, so the
// trees of a forest share a few blocks, none is moved once kept, and the
// next forest fills the same blocks again.
func buildTree(ctx *splitCtx, p *treeParams) tree {
	ctx.nodes = ctx.nodes[:0]
	wSum, wPos := ctx.nodeSums(0, ctx.n)
	ctx.grow(p, 0, ctx.n, 0, wSum, wPos)
	n := len(ctx.nodes)
	if len(ctx.blocks) == 0 {
		ctx.blocks = append(ctx.blocks, make([]node, 0, n))
	}
	for cap(ctx.blocks[ctx.block])-len(ctx.blocks[ctx.block]) < n {
		if ctx.block++; ctx.block == len(ctx.blocks) {
			ctx.blocks = append(ctx.blocks, make([]node, 0, max(2*cap(ctx.blocks[ctx.block-1]), n)))
		}
	}
	kept := &ctx.blocks[ctx.block]
	from := len(*kept)
	*kept = append(*kept, ctx.nodes...)
	return tree{nodes: (*kept)[from:len(*kept):len(*kept)]}
}

// nodeSums accumulates total and positive weight over idx[lo:hi] in
// insertion order — the reference kernel's loop exactly. With uniform
// weights it counts instead: float64 sums of 1.0 are exact integers far
// beyond any dataset size, so the counting path is bit-identical to the
// accumulating one.
func (c *splitCtx) nodeSums(lo, hi int) (wSum, wPos float64) {
	if c.uniform {
		pos := 0
		for _, row := range c.idx[lo:hi] {
			if c.y[row] {
				pos++
			}
		}
		return float64(hi - lo), float64(pos)
	}
	for _, row := range c.idx[lo:hi] {
		w := c.w[row]
		wSum += w
		if c.y[row] {
			wPos += w
		}
	}
	return wSum, wPos
}

// grow appends a subtree for the node range [lo, hi) — whose weight sums
// the caller already accumulated — to c.nodes; it returns its root index.
func (c *splitCtx) grow(p *treeParams, lo, hi, depth int, wSum, wPos float64) int {
	me := len(c.nodes)
	c.nodes = append(c.nodes, node{feature: -1, prob: safeDiv(wPos, wSum)})

	if depth >= p.maxDepth || wSum <= p.minLeaf || wPos == 0 || wPos == wSum {
		return me
	}
	feat, thr, gain := bestSplit(c, p, lo, hi, wSum, wPos)
	if feat < 0 || gain <= p.minImpurity {
		return me
	}
	mid := c.partitionIdx(lo, hi, feat, thr)
	if mid == lo || mid == hi {
		return me
	}
	lSum, lPos := c.nodeSums(lo, mid)
	rSum, rPos := c.nodeSums(mid, hi)
	if p.featImp != nil {
		p.featImp[feat] += gain * wSum
	}
	c.nodes[me].feature = feat
	c.nodes[me].threshold = thr
	l := c.grow(p, lo, mid, depth+1, lSum, lPos)
	c.nodes[me].left = l
	r := c.grow(p, mid, hi, depth+1, rSum, rPos)
	c.nodes[me].right = r
	return me
}

// bestSplit scans a random subset of features (mtry) and returns the split
// with the largest Gini gain. Each candidate feature is scanned in the
// order arrange writes — no value comparisons, no allocation — so a node
// of m rows costs O(m) + mtry · O(n). With uniform weights
// the scan replays the reference kernel's arithmetic exactly: the same
// ascending-value visit order, the same equal-value-run skip, the same
// gain expression, and the same strictly-greater tie-break, so both
// kernels pick identical splits (see DESIGN.md §7.1 for the tie-handling
// argument, and why weighted sums need TestWeightedForestGolden instead).
func bestSplit(ctx *splitCtx, p *treeParams, lo, hi int, wSum, wPos float64) (feat int, thr, gain float64) {
	dim := ctx.cols.Dim()
	mtry := p.mtry
	if mtry <= 0 || mtry > dim {
		mtry = dim
	}
	// Sample mtry distinct features by partial Fisher-Yates over the scratch
	// permutation (same rng consumption as the reference kernel).
	perm := ctx.perm
	for i := range perm {
		perm[i] = i
	}
	for i := 0; i < mtry; i++ {
		j := i + p.rng.intn(dim-i)
		perm[i], perm[j] = perm[j], perm[i]
	}

	parentGini := gini(wPos, wSum)
	feat, gain = -1, 0

	ctx.countNode(lo, hi)
	defer ctx.clearNode(lo, hi)
	for f := 0; f < mtry; f++ {
		fi := perm[f]
		col := ctx.cols.Col(fi)
		ord := ctx.arrange(fi)
		if ctx.uniform {
			// Counting fast path: lw/lp are exact integers either way (see
			// nodeSums), so the gains match the accumulating loop bit for
			// bit while skipping the weight loads.
			lc, lpc := 0, 0
			for k := 0; k < len(ord)-1; k++ {
				row := ord[k]
				lc++
				if ctx.y[row] {
					lpc++
				}
				v, next := col[row], col[ord[k+1]]
				if v == next {
					continue // cannot split between equal values
				}
				lw, lp := float64(lc), float64(lpc)
				rw, rp := wSum-lw, wPos-lp
				if lw < p.minLeaf || rw < p.minLeaf {
					continue
				}
				g := parentGini - (lw/wSum)*gini(lp, lw) - (rw/wSum)*gini(rp, rw)
				if g > gain {
					gain = g
					feat = fi
					thr = (v + next) / 2
				}
			}
			continue
		}
		var lw, lp float64
		for k := 0; k < len(ord)-1; k++ {
			row := ord[k]
			w := ctx.w[row]
			lw += w
			if ctx.y[row] {
				lp += w
			}
			v, next := col[row], col[ord[k+1]]
			if v == next {
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
				thr = (v + next) / 2
			}
		}
	}
	return feat, thr, gain
}

// partitionIdx marks every row of the node [lo, hi) with its split side
// and stably partitions idx, returning the first index of the right child.
// Stability makes the children's idx order match the reference kernel's
// filtered leftIdx/rightIdx order.
func (c *splitCtx) partitionIdx(lo, hi, feat int, thr float64) int {
	col := c.cols.Col(feat)
	for _, row := range c.idx[lo:hi] {
		if col[row] <= thr {
			c.side[row] = 1
		} else {
			c.side[row] = 0
		}
	}
	return lo + c.stablePartition(c.idx[lo:hi])
}

// stablePartition compacts rows marked side=1 to the front of seg in
// order, spills the rest to the tmp buffer, copies them back after, and
// returns the left count. Both cursors advance unconditionally — the byte
// lookup replaces a data-dependent branch the CPU cannot predict on a
// ~50/50 split.
func (c *splitCtx) stablePartition(seg []int32) int {
	tmp := c.tmp
	w, s := 0, 0
	for _, row := range seg {
		left := int(c.side[row])
		seg[w] = row
		tmp[s] = row
		w += left
		s += 1 - left
	}
	copy(seg[w:], tmp[:s])
	return w
}

func gini(pos, total float64) float64 {
	if total <= 0 {
		return 0
	}
	p := pos / total
	return 2 * p * (1 - p)
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
