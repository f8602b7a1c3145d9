// Package allocgate is the one allocation gate: Check counts what a
// function allocates and fails the test unless the count is the pinned
// one. Only _test.go files import it, so no daemon links it.
package allocgate

import (
	"runtime/debug"
	"strings"
	"testing"
)

// runs is the one run count of every gate. With the collector off, no GC
// can empty a sync.Pool inside the round, so one round reads the steady
// state.
const runs = 10

// Check measures f's allocations per call — one testing.AllocsPerRun round
// of runs calls after a warm-up call, with the collector off — logs
// "alloc <name> <measure>" and fails t unless the measure is want. It
// skips t under the race detector, whose runtime allocates on its own
// account and makes sync.Pool drop items at random. A test whose name
// lacks "Alloc" fails at once: make alloc-check selects its gates by that
// word, so a renamed gate would drop out of it unseen.
//
// Check must not be called from a t.Parallel test: the collector setting
// it changes and the malloc count testing.AllocsPerRun reads are both
// process-wide, so a test running beside it would move the count.
func Check(t testing.TB, name string, want int, f func()) {
	t.Helper()
	if !strings.Contains(t.Name(), "Alloc") {
		t.Fatalf("alloc %s: %s calls allocgate.Check, but make alloc-check runs only tests whose name holds \"Alloc\"", name, t.Name())
		return
	}
	if raceDetector {
		t.Skip("allocation counts are not exact under the race detector")
		return
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	got := int(testing.AllocsPerRun(runs, f))
	t.Logf("alloc %s %d", name, got)
	switch {
	case got > want:
		t.Errorf("alloc %s: %d allocations a call, rose from the pinned %d; remove the new allocation, or pin %d if it is meant", name, got, want, got)
	case got < want:
		t.Errorf("alloc %s: %d allocations a call, fell from the pinned %d; pin %d", name, got, want, got)
	}
}
