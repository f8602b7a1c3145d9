// Package hotpath exercises the hotpath analyzer: inside a
// //scout:hotpath function, reflective formatting, interface boxing of
// concrete values, and growing an escaping fresh slice are flagged; the
// caller-supplied-buffer pattern and pointer-shaped arguments are not.
package hotpath

import (
	"fmt"
	"slices"
)

type point struct{ x, y float64 }

func sink(v any) { _ = v }

//scout:hotpath
func Format(id int) string {
	return fmt.Sprintf("incident-%d", id) // want "hot path calls fmt.Sprintf"
}

//scout:hotpath
func Collect(n int) []float64 {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, float64(i)) // want "hot path grows fresh slice"
	}
	return out
}

//scout:hotpath
func Box(p point) {
	sink(p) // want "boxes .* into interface parameter"
}

// Search calls a generic function: the parameters are type parameters
// instantiated with []float64 and float64, so nothing is boxed — but the
// same float64 handed to an `any` parameter still is.
//
//scout:hotpath
func Search(xs []float64, v float64) int {
	i, _ := slices.BinarySearch(xs, v)
	sink(v) // want "boxes float64 into interface parameter"
	return i
}

// PassPointer is fine: pointers are pointer-shaped and box for free.
//
//scout:hotpath
func PassPointer(p *point) {
	sink(p)
}

// CollectInto is the sanctioned caller-supplied-buffer pattern: dst is a
// parameter, so the make fallback does not mark it as a fresh local.
//
//scout:hotpath
func CollectInto(dst []float64, n int) []float64 {
	if cap(dst) < n {
		dst = make([]float64, 0, n)
	}
	dst = dst[:0]
	for i := 0; i < n; i++ {
		dst = append(dst, float64(i))
	}
	return dst
}

// Cold carries no directive; formatting and boxing are unrestricted.
func Cold(id int) string {
	sink(point{1, 2})
	return fmt.Sprintf("incident-%d", id)
}
