package floatsort

import (
	"math"
	"math/rand"
	"testing"
)

// TestKeyOrdersAsTheFloat pins the transform the counting passes trust: over
// the floats between the infinities, a < b exactly when key(a) < key(b) —
// with -0 directly below +0 — and every NaN falls outside the infinities'
// keys. The sorted output itself is pinned by internal/metrics' differential
// test against the stdlib sort; the finish there is a complete insertion
// sort, so a key that misorders would cost time (and the bound on the
// recursion) before it cost correctness, which is why it has its own test.
func TestKeyOrdersAsTheFloat(t *testing.T) {
	ladder := []float64{
		math.Inf(-1), -math.MaxFloat64, -1e6, -1 - 0x1p-52, -1, -0x1p-1022,
		-math.SmallestNonzeroFloat64, math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, 0x1p-1022, 1, 1 + 0x1p-52, 1e6, math.MaxFloat64, math.Inf(1),
	}
	for i := 1; i < len(ladder); i++ {
		if a, b := ladder[i-1], ladder[i]; key(a) >= key(b) {
			t.Errorf("key(%v) = %#x is not below key(%v) = %#x", a, key(a), b, key(b))
		}
	}
	if key(math.Copysign(0, -1))+1 != key(0) {
		t.Errorf("key(-0) = %#x and key(+0) = %#x are not adjacent", key(math.Copysign(0, -1)), key(0))
	}
	if key(math.Inf(-1)) != keyNegInf || key(math.Inf(1)) != keyPosInf {
		t.Errorf("keys of the infinities are %#x and %#x", key(math.Inf(-1)), key(math.Inf(1)))
	}
	rng := rand.New(rand.NewSource(1))
	for range 100_000 {
		a, b := math.Float64frombits(rng.Uint64()), math.Float64frombits(rng.Uint64())
		switch {
		case a != a:
			if k := key(a); k >= keyNegInf && k <= keyPosInf {
				t.Fatalf("key(NaN %#x) = %#x lies between the infinities", math.Float64bits(a), k)
			}
		case b != b:
		case (a < b) != (key(a) < key(b)):
			t.Fatalf("%v < %v is %v but their keys %#x, %#x say otherwise", a, b, a < b, key(a), key(b))
		}
	}
}
