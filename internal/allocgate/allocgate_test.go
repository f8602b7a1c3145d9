package allocgate_test

import (
	"fmt"
	"strings"
	"testing"

	"scouts/internal/allocgate"
)

// recorder is a testing.TB that keeps what Check says instead of acting
// on it.
type recorder struct {
	testing.TB
	name       string
	logs, errs []string
	skipped    bool
}

func (r *recorder) Helper()      {}
func (r *recorder) Name() string { return r.name }
func (r *recorder) Skip(...any)  { r.skipped = true }
func (r *recorder) Logf(f string, args ...any) {
	r.logs = append(r.logs, fmt.Sprintf(f, args...))
}
func (r *recorder) Errorf(f string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(f, args...))
}
func (r *recorder) Fatalf(f string, args ...any) { r.Errorf(f, args...) }

var sink []byte

// allocating makes exactly n heap allocations a call.
func allocating(n int) func() {
	return func() {
		for range n {
			sink = make([]byte, 64)
		}
	}
}

// TestCheckAllocations drives Check through the recorder: a function that
// makes exactly the pinned count passes, one more fails saying the count
// rose, one fewer fails saying it fell and naming the new pin.
func TestCheckAllocations(t *testing.T) {
	const want = 3
	for _, c := range []struct {
		name   string
		allocs int
		says   []string // what the failure must say; none for a pass
	}{
		{"exact", want, nil},
		{"rose", want + 1, []string{"rose", "4 allocations"}},
		{"fell", want - 1, []string{"fell", "pin 2"}},
	} {
		rec := &recorder{TB: t, name: t.Name()}
		allocgate.Check(rec, c.name, want, allocating(c.allocs))
		if rec.skipped {
			t.Skip("Check skips under the race detector")
		}
		if line := fmt.Sprintf("alloc %s %d", c.name, c.allocs); len(rec.logs) != 1 || rec.logs[0] != line {
			t.Errorf("%s: logged %q, want %q", c.name, rec.logs, line)
		}
		if len(c.says) == 0 {
			if len(rec.errs) != 0 {
				t.Errorf("%s: failed an exact count: %q", c.name, rec.errs)
			}
			continue
		}
		if len(rec.errs) != 1 {
			t.Errorf("%s: %d failures, want 1: %q", c.name, len(rec.errs), rec.errs)
			continue
		}
		for _, s := range c.says {
			if !strings.Contains(rec.errs[0], s) {
				t.Errorf("%s: failure %q does not say %q", c.name, rec.errs[0], s)
			}
		}
	}
}

// TestCheckRefusesUnselectedAllocations: a gate that make alloc-check would
// not select, its name lacking "Alloc", fails before it measures.
func TestCheckRefusesUnselectedAllocations(t *testing.T) {
	rec := &recorder{TB: t, name: "TestMuxCost"}
	allocgate.Check(rec, "mux", 2, allocating(2))
	if len(rec.errs) != 1 || !strings.Contains(rec.errs[0], `"Alloc"`) || len(rec.logs) != 0 {
		t.Errorf(`a gate named TestMuxCost: failures %q, logs %q; want one failure naming "Alloc" and no measure`, rec.errs, rec.logs)
	}
}
