package forest

import (
	"math/rand"
	"testing"

	"scouts/internal/allocgate"
)

// TestExplainAllocations pins the explanation: the top-k entry and its
// rendering into a caller's buffer allocate nothing; the full ranking
// allocates its result and nothing else.
func TestExplainAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := TrainPointer(propertyDataset(400, rng), Params{NumTrees: 40, MaxDepth: 12, Seed: 3})
	xs := propertyProbes(f, 16, rng)
	buf := make([]byte, 0, 256)
	i := 0
	allocgate.Check(t, "forest.AppendTopSignals", 0, func() {
		buf = f.AppendTopSignals(buf[:0], xs[i%len(xs)], 3, skipCounts)
		i++
	})
	allocgate.Check(t, "forest.Explain", 1, func() {
		f.Explain(xs[i%len(xs)])
		i++
	})
}
