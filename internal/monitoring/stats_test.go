package monitoring

import (
	"reflect"
	"testing"
)

// plain is a three-method DataSource: one series ("cpu"/"srv1", value k at
// hour k for k in [0, 10)) and one event stream ("syslog"/"tor1", one event
// at each of those hours).
type plain struct{}

func (plain) Datasets() []Descriptor {
	return []Descriptor{{Name: "cpu", Type: TimeSeries}, {Name: "syslog", Type: Event}}
}

func (plain) SeriesWindow(dataset, component string, from, to float64) []float64 {
	if dataset != "cpu" || component != "srv1" {
		return nil
	}
	var out []float64
	for k := 0; k < 10; k++ {
		if t := float64(k); t >= from && t < to {
			out = append(out, t)
		}
	}
	return out
}

func (plain) EventsWindow(dataset, component string, from, to float64) []EventRecord {
	if dataset != "syslog" || component != "tor1" {
		return nil
	}
	var out []EventRecord
	for k := 0; k < 10; k++ {
		if t := float64(k); t >= from && t < to {
			out = append(out, EventRecord{Time: t, Kind: "LINK_DOWN"})
		}
	}
	return out
}

// capable adds both optional capabilities with answers no adapter would
// give, so a test can tell which side replied.
type capable struct{ plain }

func (capable) WindowStats(string, string, float64, float64) (Stats, bool) {
	return Stats{Mean: -1}, true
}
func (capable) EventCount(string, string, float64, float64) int { return -1 }
func (capable) AppendSeries(dst []float64, _, _ string, _, _ float64) []float64 {
	return append(dst, -1)
}

// TestStatsSourceOf checks both directions of the capability dispatch, for
// both capabilities: a capable source is returned as itself, a plain
// DataSource gets the materializing adapter with the window's own results.
func TestStatsSourceOf(t *testing.T) {
	if got := StatsSourceOf(capable{}); got != StatsSource(capable{}) {
		t.Fatalf("capable source should pass through, got %T", got)
	}
	if got := SeriesAppenderOf(capable{}); got != SeriesAppender(capable{}) {
		t.Fatalf("capable source should pass through, got %T", got)
	}

	stats, series := StatsSourceOf(plain{}), SeriesAppenderOf(plain{})
	got, ok := stats.WindowStats("cpu", "srv1", 1, 7)
	if want := StatsOf([]float64{1, 2, 3, 4, 5, 6}); !ok || got != want {
		t.Fatalf("adapter stats %+v (ok=%v), want %+v", got, ok, want)
	}
	// [20, 30) is empty for the known pair and unknown for the others.
	for _, w := range [][2]string{{"cpu", "srv1"}, {"cpu", "nope"}, {"nope", "srv1"}} {
		if st, ok := stats.WindowStats(w[0], w[1], 20, 30); ok || st != (Stats{}) {
			t.Fatalf("%s/%s [20,30): adapter answered %+v, ok=%v", w[0], w[1], st, ok)
		}
	}
	if n := stats.EventCount("syslog", "tor1", 2.5, 6); n != 3 {
		t.Fatalf("adapter event count %d, want 3", n)
	}
	if n := stats.EventCount("syslog", "nope", 0, 10); n != 0 {
		t.Fatalf("unknown component counts %d events", n)
	}

	dst := []float64{42}
	if got := series.AppendSeries(dst, "cpu", "srv1", 8, 20); !reflect.DeepEqual(got, []float64{42, 8, 9}) {
		t.Fatalf("adapter appended %v", got)
	}
	if got := series.AppendSeries(dst, "cpu", "nope", 0, 10); !reflect.DeepEqual(got, dst) {
		t.Fatalf("an unanswerable window must leave dst at its old length, got %v", got)
	}
}
