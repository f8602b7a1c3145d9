package cpd

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The replica's contract is math/rand's stream: the same Uint64 and Int63
// values as rand.NewSource(seed), and the same Shuffles as a rand.Rand over
// it, for as long as anyone draws. 2 000 draws wrap the 607-value ring three times; the seeds
// include the ones math/rand's seeding folds (it reduces modulo 2³¹−1 and
// maps zero to 89482311).
func TestSourceMatchesMathRand(t *testing.T) {
	const m31 = 1<<31 - 1
	seeds := []int64{0, 1, -1, math.MaxInt64, math.MinInt64, m31, 3 * m31, -m31, 89482311, 0x5bd1e995}
	rng := rand.New(rand.NewSource(300))
	for len(seeds) < 1000 {
		seeds = append(seeds, int64(rng.Uint64()))
	}
	for _, seed := range seeds {
		var s source
		s.Seed(seed)
		template := seeded.Load()
		if template.seed != seed {
			t.Fatalf("seed %d: the cached template is seed %d's", seed, template.seed)
		}
		before := *template

		want := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < 2000; i++ {
			if i%3 == 0 {
				if got, want := s.Int63(), want.Int63(); got != want {
					t.Fatalf("seed %d, draw %d: Int63 %d, math/rand %d", seed, i, got, want)
				}
			} else if got, want := s.Uint64(), want.Uint64(); got != want {
				t.Fatalf("seed %d, draw %d: Uint64 %d, math/rand %d", seed, i, got, want)
			}
		}

		// A second seeding copies the same template, which the draws above
		// left alone, and the stream starts over.
		s.Seed(seed)
		if seeded.Load() != template || *template != before {
			t.Fatalf("seed %d: the template was replaced or written to", seed)
		}
		// shuffle is (*rand.Rand).Shuffle over the stream, at lengths from
		// the trivial to past the 40 of a look-back window.
		ref := rand.New(rand.NewSource(seed))
		for round := 0; round < 100; round++ {
			n := []int{0, 1, 2, 3, 40, 40, 40, 257}[round%8]
			a, b := make([]int32, n), make([]int32, n)
			for i := range a {
				a[i], b[i] = int32(i), int32(i)
			}
			s.shuffle(a)
			ref.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
			if !slices.Equal(a, b) {
				t.Fatalf("seed %d, shuffle %d of %d: %v, math/rand %v", seed, round, n, a, b)
			}
		}
	}
}
