package metrics

import (
	"fmt"
	"math/rand"
	"testing"
)

var benchSink SummaryStats

// BenchmarkSummarize times SummarizeInPlace (kernel) against the old path
// (stdlib) at merged-buffer sizes spanning what the held-out corpus
// produces (20 to 880 values), on every shape of the differential test.
// Each iteration summarizes values it has not seen: a pool of about a
// million is drawn per (shape, size) before the timer starts and walked one
// buffer at a time, the copy out of the pool being inside the timer on both
// sides. Re-sorting one buffer instead lets the branch predictor learn the
// stdlib sort's compares and under-reads it more than threefold at n = 440
// (DESIGN.md §7.3).
func BenchmarkSummarize(b *testing.B) {
	sides := []struct {
		name string
		f    func([]float64) SummaryStats
	}{{"kernel", SummarizeInPlace}, {"stdlib", oldSummarizeInPlace}}
	for _, sh := range shapes {
		for _, n := range []int{20, 80, 440, 880} {
			var pool []float64 // drawn on first use, shared by both sides
			for _, side := range sides {
				b.Run(fmt.Sprintf("%s/n=%d/%s", sh.name, n, side.name), func(b *testing.B) {
					if pool == nil {
						rng := rand.New(rand.NewSource(int64(n)))
						pool = make([]float64, 1<<20/n*n)
						for at := 0; at < len(pool); at += n {
							sh.fill(pool[at:at+n], rng)
						}
					}
					buf := make([]float64, n)
					b.ReportAllocs()
					b.ResetTimer()
					at := 0
					for i := 0; i < b.N; i++ {
						copy(buf, pool[at:at+n])
						if at += n; at == len(pool) {
							at = 0
						}
						benchSink = side.f(buf)
					}
				})
			}
		}
	}
}
