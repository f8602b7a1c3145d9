package core

import (
	"fmt"
	"testing"
)

func selectorExamples(n int) []selectorExample {
	var out []selectorExample
	for i := 0; i < n; i++ {
		// "Known" incidents: network wording, RF gets them right.
		out = append(out, selectorExample{
			title:   "switch packet loss detected",
			body:    "on tor in cluster, drops rising",
			rfWrong: false,
			id:      fmt.Sprintf("known-%d", i),
		})
		// "Novel" incidents: new vocabulary, RF gets them wrong.
		out = append(out, selectorExample{
			title:   "optics brownout",
			body:    "marginal receive power transceiver flaps",
			rfWrong: true,
			id:      fmt.Sprintf("novel-%d", i),
		})
	}
	return out
}

func TestSelectorLearnsNovelty(t *testing.T) {
	sel, err := trainSelector(selectorExamples(30), SelectorParams{})
	if err != nil {
		t.Fatal(err)
	}
	use, p := sel.UseCPD("optics brownout on new transceiver", "marginal power")
	if !use {
		t.Fatalf("selector should route novel wording to CPD+ (p=%v)", p)
	}
	use, _ = sel.UseCPD("switch packet loss", "drops rising in cluster")
	if use {
		t.Fatal("selector should keep known wording on the RF path")
	}
}

func TestSelectorEmptyExamples(t *testing.T) {
	sel, err := trainSelector(nil, SelectorParams{})
	if err != nil {
		t.Fatal(err)
	}
	use, p := sel.UseCPD("anything", "at all")
	if use || p != 0 {
		t.Fatal("untrained selector must trust the RF")
	}
}

func TestSelectorAllCorrectDegrades(t *testing.T) {
	var ex []selectorExample
	for i := 0; i < 20; i++ {
		ex = append(ex, selectorExample{title: "switch loss", rfWrong: false})
	}
	sel, err := trainSelector(ex, SelectorParams{})
	if err != nil {
		t.Fatal(err)
	}
	if use, _ := sel.UseCPD("switch loss", ""); use {
		t.Fatal("nothing to learn: selector should never fire")
	}
}

func TestHoldoutSplitDisjointAndComplete(t *testing.T) {
	fit, hold := holdoutSplit(100, 7)
	if len(fit)+len(hold) != 100 {
		t.Fatalf("split sizes %d + %d", len(fit), len(hold))
	}
	if len(hold) != 30 {
		t.Fatalf("holdout = %d, want 30%%", len(hold))
	}
	seen := map[int]bool{}
	for _, i := range append(fit, hold...) {
		if seen[i] {
			t.Fatalf("index %d appears twice", i)
		}
		seen[i] = true
	}
	// Deterministic under the same seed.
	fit2, _ := holdoutSplit(100, 7)
	for i := range fit {
		if fit[i] != fit2[i] {
			t.Fatal("split not deterministic")
		}
	}
}

func TestSnapshotRejectsCustomDecider(t *testing.T) {
	f := getFixture(t)
	snap, err := f.scout.SnapshotPack()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) == 0 {
		t.Fatal("empty snapshot")
	}
	// Swap in a custom decider: snapshotting must now refuse.
	f.scout.SetDecider(alwaysRF{})
	defer func() {
		// Restore the default selector for other tests sharing the fixture.
		restored, rerr := Restore(snap, f.gen.Topology(), f.gen.Telemetry())
		if rerr != nil {
			t.Fatal(rerr)
		}
		f.scout.SetDecider(restoredSelector(restored))
	}()
	if _, err := f.scout.SnapshotPack(); err == nil {
		t.Fatal("custom decider should not be snapshottable")
	}
}

type alwaysRF struct{}

func (alwaysRF) UseCPD(_, _ string) (bool, float64) { return false, 0 }

// restoredSelector extracts the selector from a restored scout (test-only).
func restoredSelector(s *Scout) DeciderModel { return s.selector }
