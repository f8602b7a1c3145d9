package serving

import (
	"testing"
	"time"
)

// TestInjectedClock pins the clock-injection contract: with a fixed Now,
// the published model's TrainedAt is a pure function of the injected
// time, so snapshot metadata is reproducible in tests.
func TestInjectedClock(t *testing.T) {
	fixed := time.Date(2020, 8, 10, 12, 0, 0, 0, time.FixedZone("PDT", -7*3600))
	st := NewStore()
	st.Now = func() time.Time { return fixed }

	st.Put("PhyNet", []byte(`{"snapshot":true}`))
	m, ok := st.Latest()
	if !ok {
		t.Fatal("the published version is missing")
	}
	if !m.TrainedAt.Equal(fixed) {
		t.Fatalf("TrainedAt = %v, want %v", m.TrainedAt, fixed)
	}
	if m.TrainedAt.Location() != time.UTC {
		t.Fatalf("TrainedAt stored in %v, want UTC", m.TrainedAt.Location())
	}

	// The zero value still works: a nil Now lazily falls back to time.Now.
	var zero Store
	zero.Put("PhyNet", []byte(`{}`))
	if m2, ok := zero.Latest(); !ok || m2.TrainedAt.IsZero() {
		t.Fatalf("zero-value store did not stamp TrainedAt: %+v ok=%v", m2, ok)
	}
}
