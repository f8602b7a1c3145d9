// Command repro regenerates the paper's tables and figures over the
// synthetic cloud.
//
// Usage:
//
//	repro -exp list
//	repro -exp all [-days 180] [-rate 12] [-seed 20200810] [-workers 0]
//	repro -exp table1,fig7,fig15
//
// Experiment IDs: table1 table2 table3 table4 table5 headline latency
// fig1 fig2 fig3 fig4 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14
// fig15 fig16 storage outage.
//
// Forest training runs on the presorted-columns split kernel and
// featurization on the O(log n) window-aggregate layer (DESIGN.md §7);
// results are bit-identical to the seed kernels at any -workers value
// (the kernels' historical speedups are recorded in CHANGES.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"scouts/internal/experiments"
)

// experiment couples an ID with its runner.
type experiment struct {
	id   string
	desc string
	run  func(lab *experiments.Lab) (fmt.Stringer, error)
}

func catalogue() []experiment {
	return []experiment{
		{"table1", "RF vs CPD+ vs NLP accuracy", func(l *experiments.Lab) (fmt.Stringer, error) {
			return experiments.Table1(l), nil
		}},
		{"table2", "the twelve monitoring datasets", func(l *experiments.Lab) (fmt.Stringer, error) {
			return experiments.Table2(l), nil
		}},
		{"table3", "operator survey (Appendix A)", func(l *experiments.Lab) (fmt.Stringer, error) {
			return experiments.Table3(), nil
		}},
		{"table4", "alternative supervised models", func(l *experiments.Lab) (fmt.Stringer, error) {
			r, err := experiments.Table4(l)
			return r, err
		}},
		{"table5", "feature deflation study", func(l *experiments.Lab) (fmt.Stringer, error) {
			r, err := experiments.Table5(l)
			return r, err
		}},
		{"headline", "§7.1 Scout vs baseline accuracy", func(l *experiments.Lab) (fmt.Stringer, error) {
			return experiments.Headline(l), nil
		}},
		{"latency", "§6 inference latency", func(l *experiments.Lab) (fmt.Stringer, error) {
			return experiments.InferenceLatency(l, 200), nil
		}},
		{"fig1", "PhyNet incident creators per day", func(l *experiments.Lab) (fmt.Stringer, error) {
			return experiments.Figure1(l), nil
		}},
		{"fig2", "diagnosis time: single vs multiple teams", func(l *experiments.Lab) (fmt.Stringer, error) {
			return experiments.Figure2(l), nil
		}},
		{"fig3", "reducible investigation time", func(l *experiments.Lab) (fmt.Stringer, error) {
			return experiments.Figure3(l), nil
		}},
		{"fig4", "PhyNet as innocent waypoint", func(l *experiments.Lab) (fmt.Stringer, error) {
			return experiments.Figure4(l), nil
		}},
		{"fig6", "baseline overhead-in distribution", func(l *experiments.Lab) (fmt.Stringer, error) {
			return experiments.Figure6(l), nil
		}},
		{"fig7", "Scout gain/overhead on mis-routed incidents", func(l *experiments.Lab) (fmt.Stringer, error) {
			return experiments.Figure7(l), nil
		}},
		{"fig8", "model-selector decider comparison", func(l *experiments.Lab) (fmt.Stringer, error) {
			r, err := experiments.Figure8(l)
			return r, err
		}},
		{"fig9", "deprecated monitoring systems", func(l *experiments.Lab) (fmt.Stringer, error) {
			r, err := experiments.Figure9(l, 7, 3)
			return r, err
		}},
		{"fig10", "retraining cadences over time", func(l *experiments.Lab) (fmt.Stringer, error) {
			r, err := experiments.Figure10(l)
			return r, err
		}},
		{"fig11", "gains on other teams' watchdog incidents", func(l *experiments.Lab) (fmt.Stringer, error) {
			return experiments.Figure11(l), nil
		}},
		{"fig12", "CRI replay: trigger after n teams", func(l *experiments.Lab) (fmt.Stringer, error) {
			return experiments.Figure12(l, 10), nil
		}},
		{"fig13", "class distances (all features)", func(l *experiments.Lab) (fmt.Stringer, error) {
			return experiments.Figure13(l), nil
		}},
		{"fig14", "class distances per component type", func(l *experiments.Lab) (fmt.Stringer, error) {
			return experiments.Figure14(l), nil
		}},
		{"fig15", "Scout Master: perfect Scouts", func(l *experiments.Lab) (fmt.Stringer, error) {
			return experiments.Figure15(l, 6, 60), nil
		}},
		{"fig16", "Scout Master: imperfect Scouts", func(l *experiments.Lab) (fmt.Stringer, error) {
			return experiments.Figure16(l, 12, 800), nil
		}},
		{"storage", "Appendix B rule-based Storage Scout", func(l *experiments.Lab) (fmt.Stringer, error) {
			return experiments.StorageScout(l), nil
		}},
		{"outage", "accuracy vs monitoring blackout fraction (JSON)", func(l *experiments.Lab) (fmt.Stringer, error) {
			r, err := experiments.OutageCurve(l, 0.25)
			return r, err
		}},
	}
}

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment IDs, 'all', or 'list'")
	days := flag.Int("days", 180, "trace length in days")
	rate := flag.Float64("rate", 12, "mean incidents per day")
	seed := flag.Int64("seed", 20200810, "world seed")
	workers := flag.Int("workers", 0, "training/evaluation workers (0 = GOMAXPROCS); results are identical at any setting")
	flag.Parse()

	cat := catalogue()
	if *exp == "list" {
		for _, e := range cat {
			fmt.Printf("  %-9s %s\n", e.id, e.desc)
		}
		return
	}

	want := map[string]bool{}
	if *exp == "all" {
		for _, e := range cat {
			want[e.id] = true
		}
	} else {
		for _, id := range strings.Split(*exp, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}
	for id := range want {
		found := false
		for _, e := range cat {
			if e.id == id {
				found = true
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "repro: unknown experiment %q (try -exp list)\n", id)
			os.Exit(2)
		}
	}

	fmt.Fprintf(os.Stderr, "repro: building lab (days=%d rate=%.0f seed=%d)...\n", *days, *rate, *seed)
	start := time.Now()
	lab, err := experiments.NewLab(experiments.LabParams{Seed: *seed, Days: *days, IncidentsPerDay: *rate, Workers: *workers})
	if err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "repro: lab ready in %v (%d incidents, %d train / %d test)\n",
		time.Since(start).Round(time.Second), lab.Log.Len(), len(lab.Train), len(lab.Test))

	for _, e := range cat {
		if !want[e.id] {
			continue
		}
		t0 := time.Now()
		r, err := e.run(lab)
		if err != nil {
			fmt.Fprintf(os.Stderr, "repro: %s: %v\n", e.id, err)
			os.Exit(1)
		}
		fmt.Printf("==== %s (%s) [%v] ====\n%s\n", e.id, e.desc, time.Since(t0).Round(time.Millisecond), r)
	}
}
