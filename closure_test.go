package scouts_test

import (
	"fmt"
	"go/build"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// module is the repository's module path (go.mod).
const module = "scouts"

// daemons are the commands that make up the served system (§6): the
// replica that trains and scores, and the gateway that fronts replicas.
var daemons = []string{"scouts/cmd/scoutd", "scouts/cmd/scoutgw"}

// TestDaemonClosures pins the repository packages each daemon links to
// testdata/closure.golden, so that adding a package to a daemon's build
// (or dropping one) is a reviewed diff of that file. The walk follows
// non-test imports under the module with go/build, as `go list -deps`
// does for the current platform, and ignores the standard library.
func TestDaemonClosures(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "closure.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := parseClosures(string(raw))
	var render strings.Builder
	for _, d := range daemons {
		got, err := closure(d)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&render, "%s\n\t%s\n", d, strings.Join(got, "\n\t"))
		added, removed := setDiff(got, want[d]), setDiff(want[d], got)
		if len(added)+len(removed) > 0 {
			t.Errorf("%s links %d repository packages, testdata/closure.golden lists %d\n\tadded:   %v\n\tremoved: %v",
				d, len(got), len(want[d]), added, removed)
		}
		delete(want, d)
	}
	for d := range want {
		t.Errorf("testdata/closure.golden lists %s, which is not a daemon", d)
	}
	if t.Failed() {
		t.Logf("testdata/closure.golden for this tree:\n%s", render.String())
	}
}

// closure returns pkg and every module package it imports, directly or
// not, sorted.
func closure(pkg string) ([]string, error) {
	seen := map[string]bool{pkg: true}
	out := []string{pkg}
	for i := 0; i < len(out); i++ {
		dir := filepath.FromSlash("." + strings.TrimPrefix(out[i], module))
		bp, err := build.ImportDir(dir, 0)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", out[i], err)
		}
		for _, imp := range bp.Imports {
			if (imp == module || strings.HasPrefix(imp, module+"/")) && !seen[imp] {
				seen[imp] = true
				out = append(out, imp)
			}
		}
	}
	slices.Sort(out)
	return out, nil
}

// parseClosures reads the golden: a daemon's import path at the start of
// a line, then its closure one package per indented line. Lines starting
// with # are comments.
func parseClosures(s string) map[string][]string {
	m := map[string][]string{}
	var cur string
	for _, line := range strings.Split(s, "\n") {
		switch {
		case strings.TrimSpace(line) == "" || strings.HasPrefix(line, "#"):
		case line[0] == '\t' || line[0] == ' ':
			m[cur] = append(m[cur], strings.TrimSpace(line))
		default:
			cur = line
			m[cur] = nil
		}
	}
	return m
}

// setDiff returns the elements of a that b lacks.
func setDiff(a, b []string) []string {
	var out []string
	for _, x := range a {
		if !slices.Contains(b, x) {
			out = append(out, x)
		}
	}
	return out
}
