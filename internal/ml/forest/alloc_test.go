//go:build !race

package forest

import (
	"math/rand"
	"testing"
)

// TestExplainAllocations pins the explanation's steady-state allocations:
// the top-k entry and its rendering into a caller's buffer allocate
// nothing; the full ranking allocates its result and nothing else. (A
// non-race file: the race detector makes sync.Pool drop items at random.)
func TestExplainAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := TrainPointer(propertyDataset(400, rng), Params{NumTrees: 40, MaxDepth: 12, Seed: 3})
	xs := propertyProbes(f, 16, rng)
	buf := make([]byte, 0, 256)
	i := 0
	if allocs := testing.AllocsPerRun(100, func() {
		buf = f.AppendTopSignals(buf[:0], xs[i%len(xs)], 3, skipCounts)
		i++
	}); allocs != 0 {
		t.Errorf("AppendTopSignals allocates %v times per call in steady state", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		f.Explain(xs[i%len(xs)])
		i++
	}); allocs > 1 {
		t.Errorf("Explain allocates %v times per call in steady state, want its result only", allocs)
	}
}
