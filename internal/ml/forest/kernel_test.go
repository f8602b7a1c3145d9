package forest

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"scouts/internal/allocgate"
	"scouts/internal/ml/mlcore"
)

// snapshotWith trains with the given entry point (Train or the
// TrainReference oracle) and returns its binary section.
func snapshotWith(t *testing.T, train func(*mlcore.Dataset, Params) (*Forest, error), d *mlcore.Dataset, p Params) []byte {
	t.Helper()
	f, err := train(d, p)
	if err != nil {
		t.Fatal(err)
	}
	return packed(t, f, nil)
}

// packed appends f's binary section to buf.
func packed(t testing.TB, f *Forest, buf []byte) []byte {
	t.Helper()
	b, err := f.AppendBinary(buf)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPresortedKernelMatchesReference proves the presorted split kernel
// grows byte-identical forests to the seed kernel (oracle_test.go): same splits,
// same thresholds, same importances, bit for bit. Duplicate-heavy features
// (the xor dataset's near-binary columns, plus a constant column) exercise
// the equal-value-run tie handling; bootstrap on/off exercises the
// multiplicity expansion.
func TestPresortedKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	d := xorDataset(500, 0.05, rng)
	// A constant column and an integer-quantized column maximize ties.
	d.Features = append(d.Features, "const", "quant")
	for i := range d.Samples {
		d.Samples[i].X = append(d.Samples[i].X, 1.0, float64(rng.Intn(4)))
	}
	for _, boot := range []bool{false, true} {
		for _, workers := range []int{1, 8} {
			p := Params{NumTrees: 20, MaxDepth: 8, Seed: 77, Workers: workers, DisableBootstrap: !boot}
			a, b := snapshotWith(t, Train, d, p), snapshotWith(t, TrainReference, d, p)
			if !bytes.Equal(a, b) {
				t.Fatalf("bootstrap=%v workers=%d: presorted kernel diverges from reference (%d vs %d bytes)",
					boot, workers, len(a), len(b))
			}
		}
	}
}

// TestBestSplitZeroAllocs guards the split kernel's allocation contract:
// once the per-tree scratch exists, finding the best split of a node
// allocates nothing, on the root and on a small node.
func TestBestSplitZeroAllocs(t *testing.T) {
	d := xorDataset(400, 0.1, rand.New(rand.NewSource(8)))
	cols := columnsOf(d, 1)
	ctx := newSplitCtx(cols)
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	ctx.reset(idx)
	tp := &treeParams{maxDepth: 8, minLeaf: 2, mtry: 2, rng: newRNG(5)}
	for _, hi := range []int{ctx.n, ctx.n / 10} {
		wSum, wPos := ctx.nodeSums(0, hi)
		allocgate.Check(t, fmt.Sprintf("forest.bestSplit/rows=%d", hi), 0, func() { bestSplit(ctx, tp, 0, hi, wSum, wPos) })
	}
}

// tieDataset draws every cell from a handful of values, -0 and +0 among
// them, so each column is mostly equal-value runs, with labels a tree can
// split on. The last column is NaN in one row of eight; only there,
// because a split between a NaN and a value has a NaN threshold that
// sends every row right and ends the branch.
func tieDataset(n int, rng *rand.Rand) *mlcore.Dataset {
	vals := []float64{math.Copysign(0, -1), 0, 1, 2.5, -3}
	d := mlcore.NewDataset([]string{"a", "b", "c", "d", "nan"})
	for i := 0; i < n; i++ {
		x := make([]float64, d.Dim())
		for f := range x {
			x[f] = vals[rng.Intn(len(vals))]
		}
		if rng.Intn(8) == 0 {
			x[4] = math.NaN()
		}
		d.MustAdd(mlcore.Sample{X: x, Y: (x[0] >= 1) != (x[1] >= 1) != (rng.Intn(4) == 0)})
	}
	return d
}

// multiplicityDraw is a tree's sample of n rows in which each drawn row
// appears one to five times, in shuffled draw order: the bootstrap's shape
// with its rare high multiplicities made common.
func multiplicityDraw(n int, rng *rand.Rand) []int {
	idx := make([]int, 0, n)
	for _, row := range rng.Perm(n) {
		for k := min(1+rng.Intn(5), n-len(idx)); k > 0; k-- {
			idx = append(idx, row)
		}
	}
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	return idx
}

// TestArrangeMatchesSpecification states arrange against its definition
// rather than against the kernel it replaced: at every node range a real
// buildTree visits, for every feature, it returns the node's rows, each
// repeated by its multiplicity in the node, sorted by value with NaNs
// first and ties (±0 included) by row index.
func TestArrangeMatchesSpecification(t *testing.T) {
	nodes := 0
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := tieDataset(100+rng.Intn(300), rng)
		cols := columnsOf(d, 2)
		ctx := newSplitCtx(cols)
		ctx.reset(multiplicityDraw(d.Len(), rng))
		tr := buildTree(ctx, &treeParams{maxDepth: 12, minLeaf: 1, mtry: 2, rng: newRNG(uint64(seed))})

		check := func(lo, hi int) {
			for f := 0; f < cols.Dim(); f++ {
				col := cols.Col(f)
				want := slices.Clone(ctx.idx[lo:hi])
				slices.SortFunc(want, func(a, b int32) int {
					return cmp.Or(cmp.Compare(col[a], col[b]), cmp.Compare(a, b))
				})
				ctx.countNode(lo, hi)
				got := ctx.arrange(f)
				ctx.clearNode(lo, hi)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d node [%d, %d) feature %d: arranged %v, want %v", seed, lo, hi, f, got, want)
				}
			}
			nodes++
		}
		// After growth, idx[lo:hi] still holds each node's rows: every
		// split partitioned its own range and the children only permuted
		// within theirs. So the ranges are recovered from the splits.
		var visit func(nd, lo, hi int)
		visit = func(nd, lo, hi int) {
			check(lo, hi)
			n := tr.nodes[nd]
			if n.feature < 0 {
				return
			}
			col, mid := cols.Col(n.feature), lo
			for _, row := range ctx.idx[lo:hi] {
				if col[row] <= n.threshold {
					mid++
				}
			}
			visit(n.left, lo, mid)
			visit(n.right, mid, hi)
		}
		visit(0, 0, ctx.n)
	}
	t.Logf("checked %d nodes", nodes)
}
