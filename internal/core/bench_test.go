package core

import "testing"

// BenchmarkExtract times text in → Extraction out over the fixture's
// held-out incidents, a different one each iteration: one incident again and
// again would be measured with the branch predictor warmed to its regex
// walks (DESIGN.md §7.3).
func BenchmarkExtract(b *testing.B) {
	f := getFixture(b)
	fb := f.scout.fb
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := f.test[i%len(f.test)]
		fb.Extract(in.Title, in.Body, in.InitialComponents)
	}
}

// BenchmarkExplain times feature vector in → operator-facing explanation out
// (the top three signals, rendered) over the held-out incidents' vectors,
// cycled for the same reason.
func BenchmarkExplain(b *testing.B) {
	f := getFixture(b)
	s := f.scout
	var xs [][]float64
	for _, in := range f.test {
		if ex := s.fb.Extract(in.Title, in.Body, in.InitialComponents); !ex.Empty && !ex.Excluded {
			xs = append(xs, s.fb.Featurize(ex, in.CreatedAt))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.explainRF(xs[i%len(xs)], i&1 == 0)
	}
}
