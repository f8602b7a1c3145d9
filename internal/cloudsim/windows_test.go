package cloudsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"slices"
	"testing"

	"scouts/internal/monitoring"
)

// A golden here pins what the simulator draws over a fixed grid as the
// sha256 of every value's bits; each golden test holds the hex it expects.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{sha256.New()} }

func (d *digest) float(x float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
	d.h.Write(b[:])
}

// series writes whether xs is nil, its length and every value.
func (d *digest) series(xs []float64) {
	fmt.Fprintf(d.h, "nil=%v n=%d\n", xs == nil, len(xs))
	for _, x := range xs {
		d.float(x)
	}
}

// events writes whether evs is nil, its length and every event.
func (d *digest) events(evs []monitoring.EventRecord) {
	fmt.Fprintf(d.h, "nil=%v n=%d\n", evs == nil, len(evs))
	for _, e := range evs {
		fmt.Fprintf(d.h, "%s ", e.Kind)
		d.float(e.Time)
	}
}

// check fails t unless the digest is want.
func (d *digest) check(t testing.TB, what, want string) {
	t.Helper()
	if got := hex.EncodeToString(d.h.Sum(nil)); got != want {
		t.Errorf("%s: sha256 %s, want %s", what, got, want)
	}
}

// sameSeries reports whether a and b hold the same values, bit for bit.
func sameSeries(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// goldenWindows are the window shapes the string-keyed synthesis was
// compared on before every draw came to derive from seriesKey(dataset,
// component) through unitAt and normAt. The goldens below pin the series
// and events over this grid; each digest was pinned beside that synthesis
// before it was deleted.
var goldenWindows = []struct{ from, to float64 }{
	{40, 42},       // the Scout's look-back window
	{38, 42},       // the doubled CPD+ window
	{41.95, 43.05}, // off-tick bounds inside overlapping anomalies
	{40, 50},       // 100 ticks: past WindowStats' 64-sample scratch
	{42, 42},       // empty
	{43, 42},       // inverted
	{42.01, 42.05}, // between two ticks
	{0, 0.1},       // a single tick at the origin
}

// TestAppendSeriesMatchesOldWindow: for every dataset × a component of every
// type (covered or not) × every window shape, SeriesWindow is what the
// string-keyed synthesis drew, AppendSeries onto a prefix is append(prefix,
// SeriesWindow…) and never touches the prefix, and WindowStats reduces
// exactly that window.
func TestAppendSeriesMatchesOldWindow(t *testing.T) {
	tel := overlapTelemetry()
	comps := []string{"tor1.c1.dc1", "agg1.c1.dc1", "srv2.c1.dc1", "vm1.c1.dc1", "c1.dc1", "c2.dc2", "dc1", "nosuch.c9.dc9"}
	datasets := []string{"nosuch"}
	for _, s := range specs() {
		datasets = append(datasets, s.desc.Name)
	}
	prefix := []float64{math.NaN(), -1, 7.25}
	nonEmpty, long := 0, 0
	d := newDigest()
	for _, ds := range datasets {
		for _, comp := range comps {
			for _, w := range goldenWindows {
				want := tel.SeriesWindow(ds, comp, w.from, w.to)
				d.series(want)

				// Spare capacity holds a canary the append may overwrite but
				// the prefix below it must survive bit for bit.
				dst := append(make([]float64, 0, len(prefix)+5), prefix...)
				out := tel.AppendSeries(dst, ds, comp, w.from, w.to)
				if !sameSeries(out, append(slices.Clone(prefix), want...)) || !sameSeries(dst[:len(prefix)], prefix) {
					t.Fatalf("%s/%s [%v,%v): AppendSeries onto %v gave %v, want the prefix and then %v",
						ds, comp, w.from, w.to, prefix, out, want)
				}

				st, ok := tel.WindowStats(ds, comp, w.from, w.to)
				if ok != (len(want) > 0) {
					t.Fatalf("%s/%s [%v,%v): WindowStats ok=%v for %d values", ds, comp, w.from, w.to, ok, len(want))
				}
				if ok && st != monitoring.StatsOf(want) {
					t.Fatalf("%s/%s [%v,%v): WindowStats %+v, StatsOf(SeriesWindow) %+v",
						ds, comp, w.from, w.to, st, monitoring.StatsOf(want))
				}
				if len(want) > 0 {
					nonEmpty++
				}
				if len(want) > 64 {
					long++
				}
			}
		}
	}
	if nonEmpty < 50 || long < 10 {
		t.Fatalf("the golden pins only %d non-empty and %d >64-tick windows", nonEmpty, long)
	}
	d.check(t, "series", "b5a2db5757bff8645b470de0777c55d3f5acc80fcdac0c92de207ed9c87d77e6")
}

// TestEventsMatchOldWindow: the hoisted key in EventsWindow draws the
// occurrences and in-tick offsets the string-keyed draws did, and
// EventCount counts exactly that window.
func TestEventsMatchOldWindow(t *testing.T) {
	tel := overlapTelemetry()
	comps := []string{"tor1.c1.dc1", "agg2.c3.dc2", "srv2.c1.dc1", "vm1.c1.dc1", "c1.dc1", "nosuch"}
	events := 0
	d := newDigest()
	for _, s := range specs() {
		for _, comp := range comps {
			for _, w := range append(goldenWindows, struct{ from, to float64 }{0, 480}) {
				got := tel.EventsWindow(s.desc.Name, comp, w.from, w.to)
				d.events(got)
				if n := tel.EventCount(s.desc.Name, comp, w.from, w.to); n != len(got) {
					t.Fatalf("%s/%s [%v,%v): EventCount %d, EventsWindow has %d", s.desc.Name, comp, w.from, w.to, n, len(got))
				}
				events += len(got)
			}
		}
	}
	if events < 100 {
		t.Fatalf("the golden pins only %d events", events)
	}
	d.check(t, "events", "9de5b1d4390182515cfc287641bad2178f05c94d274cec1240a2884c3f243d7f")
}
