package lint_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"scouts/internal/lint"
)

// The fixture harness: every file under testdata/src carries
// // want "regex" comments on the lines where diagnostics are expected
// (several quoted regexes for several diagnostics on one line). The test
// runs the full analyzer catalog over the fixture tree and demands an
// exact match in both directions — every want consumed by a distinct
// diagnostic, every diagnostic claimed by a want.
var (
	wantRE   = regexp.MustCompile(`// want ("[^"]*"(?:\s+"[^"]*")*)\s*$`)
	quotedRE = regexp.MustCompile(`"([^"]*)"`)
)

// loadWants scans root for want comments, keyed by "path:line".
func loadWants(t *testing.T, root string) map[string][]*regexp.Regexp {
	t.Helper()
	wants := map[string][]*regexp.Regexp{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			key := fmt.Sprintf("%s:%d", path, i+1)
			for _, q := range quotedRE.FindAllStringSubmatch(m[1], -1) {
				re, err := regexp.Compile(q[1])
				if err != nil {
					t.Fatalf("%s: bad want pattern %q: %v", key, q[1], err)
				}
				wants[key] = append(wants[key], re)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("scanning fixtures: %v", err)
	}
	if len(wants) == 0 {
		t.Fatalf("no want comments found under %s", root)
	}
	return wants
}

func TestFixtures(t *testing.T) {
	// The driver reports absolute file paths; walk the same absolute root
	// so want keys and diagnostic keys line up.
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Run(lint.Config{Root: root})
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	unmatched := loadWants(t, root)

	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.File, d.Line)
		text := fmt.Sprintf("[%s] %s", d.Check, d.Message)
		idx := -1
		for i, re := range unmatched[key] {
			if re.MatchString(text) {
				idx = i
				break
			}
		}
		if idx < 0 {
			t.Errorf("unexpected diagnostic at %s: %s", key, text)
			continue
		}
		unmatched[key] = append(unmatched[key][:idx], unmatched[key][idx+1:]...)
	}
	for key, res := range unmatched {
		for _, re := range res {
			t.Errorf("missing diagnostic at %s matching %q", key, re)
		}
	}
}

// TestSuppression pins the //scout:allow contract on the allowsrc
// fixture: valid directives (trailing and line-above) silence their
// findings; a reasonless directive, a bare directive, and an unknown
// check name each surface as [allow] findings — and the reasonless one
// leaves the original finding standing.
func TestSuppression(t *testing.T) {
	root := filepath.Join("testdata", "allowsrc")
	diags, err := lint.Run(lint.Config{Root: root})
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}

	src, err := os.ReadFile(filepath.Join(root, "allowdemo.go"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(src), "\n")
	lineOf := func(pred func(string) bool, what string) int {
		t.Helper()
		for i, l := range lines {
			if pred(l) {
				return i + 1
			}
		}
		t.Fatalf("fixture marker not found: %s", what)
		return 0
	}
	reasonless := lineOf(func(l string) bool {
		return strings.HasSuffix(strings.TrimSpace(l), "//scout:allow sortslice")
	}, "reasonless directive")
	bare := lineOf(func(l string) bool {
		return strings.TrimSpace(l) == "//scout:allow"
	}, "bare directive")
	unknown := lineOf(func(l string) bool {
		return strings.Contains(l, "nosuchcheck")
	}, "unknown-check directive")

	type want struct {
		line    int
		check   string
		message string // substring
	}
	wants := []want{
		{reasonless, "sortslice", "sorts through reflection"},
		{reasonless, "allow", "needs a reason"},
		{bare, "allow", "needs a check name"},
		{unknown, "allow", "unknown check"},
	}
	if len(diags) != len(wants) {
		for _, d := range diags {
			t.Logf("got: %s", d.String())
		}
		t.Fatalf("got %d findings, want %d", len(diags), len(wants))
	}
	for _, w := range wants {
		found := false
		for _, d := range diags {
			if d.Line == w.line && d.Check == w.check && strings.Contains(d.Message, w.message) {
				found = true
				break
			}
		}
		if !found {
			for _, d := range diags {
				t.Logf("got: %s", d.String())
			}
			t.Fatalf("missing finding: line %d [%s] ~%q", w.line, w.check, w.message)
		}
	}
}

// TestSelfCheck runs the full catalog over the repository itself — the
// same invocation as `make lint` — and demands zero findings. This is
// the gate that keeps the tree honest about its own invariants.
func TestSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped with -short")
	}
	diags, err := lint.Run(lint.Config{Root: moduleRoot(t)})
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("repository is not lint-clean: %s", d.String())
	}
}

// TestSubtreeRun lints one directory inside the module, as `scoutlint
// internal/serving` does: the driver walks up to go.mod for real import
// paths and loads serving's module-internal dependencies (core, httpx,
// ...) from outside the root as type-check fodder, analysis off. Without
// that loader the run is a type error; the subtree is clean, so a finding
// is the driver's too.
func TestSubtreeRun(t *testing.T) {
	diags, err := lint.Run(lint.Config{Root: filepath.Join(moduleRoot(t), "internal", "serving")})
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("internal/serving is not lint-clean: %s", d.String())
	}
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod found above test directory")
		}
		dir = parent
	}
}
