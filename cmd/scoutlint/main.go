// Command scoutlint runs the repo's project-customized static-analysis
// suite (internal/lint) over the module: five analyzers enforcing the
// determinism, map-order, reflection-free-sort, hot-path and lock-pairing
// invariants the repository holds itself to. Only the standard library is
// used.
//
// Usage:
//
//	scoutlint [-json] [./... | dir]
//
// With no argument (or "./...") the module containing the working
// directory is linted. Findings print as
//
//	file:line:col: [check] message
//
// and the exit status is 1 when any unsuppressed finding remains, so
// `make ci` can gate on it. -json emits the same findings as a JSON
// document (root + count + findings array), committable and diffable.
//
// Suppressions: a `//scout:allow <check> <reason>` comment on the
// flagged line (or the line above) silences that check there; the
// reason is mandatory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"scouts/internal/lint"
)

// Document is the -json output: a small fixed header plus a results
// array.
type Document struct {
	Root     string            `json:"root"`
	Count    int               `json:"count"`
	Findings []lint.Diagnostic `json:"findings"`
}

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as JSON instead of file:line text")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: scoutlint [-json] [./... | dir]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	root, err := resolveRoot(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "scoutlint: %v\n", err)
		os.Exit(2)
	}
	diags, err := lint.Run(lint.Config{Root: root})
	if err != nil {
		fmt.Fprintf(os.Stderr, "scoutlint: %v\n", err)
		os.Exit(2)
	}
	// Report paths relative to the root: stable across machines, so the
	// JSON form can be committed and diffed.
	for i := range diags {
		if rel, err := filepath.Rel(root, diags[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].File = filepath.ToSlash(rel)
		}
	}

	if *jsonOut {
		doc := Document{Root: filepath.Base(root), Count: len(diags), Findings: diags}
		if doc.Findings == nil {
			doc.Findings = []lint.Diagnostic{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintf(os.Stderr, "scoutlint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "scoutlint: %d finding(s)\n", len(diags))
		}
		os.Exit(1)
	}
}

// resolveRoot turns the argument into the directory to lint: "" and
// "./..." (or any path ending in "/...") mean the enclosing module —
// found by walking up from the path to the nearest go.mod — and a plain
// directory is linted as-is.
func resolveRoot(arg string) (string, error) {
	wantModule := false
	switch {
	case arg == "" || arg == "./...":
		arg, wantModule = ".", true
	case strings.HasSuffix(arg, "/..."):
		arg, wantModule = strings.TrimSuffix(arg, "/..."), true
	}
	abs, err := filepath.Abs(arg)
	if err != nil {
		return "", err
	}
	if info, err := os.Stat(abs); err != nil {
		return "", err
	} else if !info.IsDir() {
		return "", fmt.Errorf("%s is not a directory", arg)
	}
	if !wantModule {
		return abs, nil
	}
	for dir := abs; ; {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return abs, nil // no module found; lint the directory itself
		}
		dir = parent
	}
}
