package scouts_test

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// unlinkedTags are the reasons a function in a system package may be
// declared yet linked by no daemon: cmd/scoutbench calls it (harness), the
// lab does (lab), or only tests do (test).
var unlinkedTags = []string{"harness", "lab", "test"}

// TestDaemonLinkedFunctions pins the functions declared in the packages the
// daemons link that neither daemon's binary contains to
// testdata/unlinked.golden. It builds scoutd and scoutgw without inlining
// (-gcflags=all=-l), so every function the linker keeps has a text symbol,
// reads their symbols with `go tool nm`, and compares the functions
// declared in non-test files of closure()'s packages with them. A function
// added to a system package that no daemon runs, or a listed one that a
// daemon now links or that is gone, fails the test. A method reached only
// through an interface or a method value stays linked whenever the linker
// cannot prove it dead, so the set is a lower bound on dead code.
func TestDaemonLinkedFunctions(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "unlinked.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := parseUnlinked(string(raw))
	if err != nil {
		t.Fatalf("testdata/unlinked.golden: %v", err)
	}

	dir := t.TempDir()
	args := []string{"build", "-gcflags=all=-l", "-o", dir + string(filepath.Separator)}
	for _, d := range daemons {
		args = append(args, "./"+strings.TrimPrefix(d, module+"/"))
	}
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	linked := map[string]bool{}
	pkgs := map[string]bool{}
	for _, d := range daemons {
		bin := filepath.Join(dir, filepath.Base(d))
		out, err := exec.Command("go", "tool", "nm", bin).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", filepath.Base(bin), err)
		}
		for _, name := range textSymbols(out, d) {
			linked[name] = true
		}
		ps, err := closure(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range ps {
			pkgs[p] = true
		}
	}

	var got []string
	declared := map[string]bool{}
	for _, p := range mapKeys(pkgs) {
		decls, err := declaredFuncs(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range decls {
			declared[f] = true
			if !linked[f] {
				got = append(got, f)
			}
		}
	}
	for _, f := range setDiff(got, mapKeys(want)) {
		t.Errorf("%s is declared in a system package, and neither daemon links it", f)
	}
	for _, f := range setDiff(mapKeys(want), got) {
		if declared[f] {
			t.Errorf("testdata/unlinked.golden lists %s, which a daemon links", f)
		} else {
			t.Errorf("testdata/unlinked.golden lists %s, which no system package declares", f)
		}
	}
	if t.Failed() {
		var render strings.Builder
		for _, f := range got {
			reason, ok := want[f]
			if !ok {
				reason = "?"
			}
			fmt.Fprintf(&render, "%s  # %s\n", f, reason)
		}
		t.Logf("testdata/unlinked.golden for this tree (each ? needs a tag and a caller):\n%s", render.String())
	}
}

// textSymbols returns the normalised names of the module's functions in a
// `go tool nm` listing of the binary built from the main package daemon.
func textSymbols(nm []byte, daemon string) []string {
	var out []string
	sc := bufio.NewScanner(bytes.NewReader(nm))
	for sc.Scan() {
		// "  addr T name"; names may hold spaces inside generic brackets.
		fields := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
		if len(fields) < 3 || (fields[1] != "T" && fields[1] != "t") {
			continue
		}
		if name, ok := normaliseSymbol(fields[2], daemon); ok {
			out = append(out, name)
		}
	}
	return out
}

// normaliseSymbol maps a linker text symbol to the name declaredFuncs gives
// the function whose body it is: the package path without the module's
// "internal/" prefix, the receiver's type name without pointer or type
// arguments, then the function. A closure, a go or defer wrapper and a
// method value count as their enclosing function, and the numbered inits
// of a package as init. main's symbols belong to daemon. ok is false for a
// symbol outside the module.
func normaliseSymbol(sym, daemon string) (name string, ok bool) {
	switch {
	case strings.HasPrefix(sym, "main."):
		sym = daemon + sym[len("main"):]
	case !strings.HasPrefix(sym, module+"/"):
		return "", false
	}
	// Drop type arguments, which may nest and hold dots and spaces.
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	sym = b.String()
	// The package path ends at the first dot after its last slash.
	slash := strings.LastIndex(sym, "/")
	dot := strings.Index(sym[slash:], ".")
	if dot < 0 {
		return "", false
	}
	pkg, rest := sym[:slash+dot], sym[slash+dot+1:]
	rest = strings.NewReplacer("(*", "", "(", "", ")", "").Replace(rest)
	rest = strings.TrimSuffix(rest, "-fm")
	parts := strings.Split(rest, ".")
	// What follows a closure, wrapper or numbering part is inside the
	// function the parts before it name: Func, Recv.Func or init.
	for i, p := range parts {
		if isWrapper(p) {
			parts = parts[:i]
			break
		}
	}
	return pkgName(pkg) + "." + strings.Join(parts, "."), true
}

// isWrapper reports whether a symbol part names compiler-made code inside
// a function: a closure (func1), a go or defer statement's wrapper
// (gowrap1, deferwrap1) or the numbering of nested ones (1).
func isWrapper(part string) bool {
	for _, p := range []string{"func", "gowrap", "deferwrap", ""} {
		if rest, ok := strings.CutPrefix(part, p); ok && rest != "" && strings.Trim(rest, "0123456789") == "" {
			return true
		}
	}
	return false
}

// pkgName is how the golden names a module package: its import path
// without the module and, under internal/, without that either.
func pkgName(path string) string {
	path = strings.TrimPrefix(path, module+"/")
	return strings.TrimPrefix(path, "internal/")
}

// declaredFuncs returns the normalised names of the functions declared in
// pkg's non-test files for this platform, sorted. Blank functions are
// skipped; every init counts once.
func declaredFuncs(pkg string) ([]string, error) {
	dir := filepath.FromSlash("." + strings.TrimPrefix(pkg, module))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", pkg, err)
	}
	fset := token.NewFileSet()
	seen := map[string]bool{}
	for _, f := range bp.GoFiles {
		af, err := parser.ParseFile(fset, filepath.Join(dir, f), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, d := range af.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "_" {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				name = recvType(fd.Recv.List[0].Type) + "." + name
			}
			seen[pkgName(pkg)+"."+name] = true
		}
	}
	return mapKeys(seen), nil
}

// recvType is the name of a receiver's type, without pointer or type
// parameters.
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return fmt.Sprintf("%T", e)
		}
	}
}

// parseUnlinked reads the golden: one function a line, then "# tag: who
// needs it" with tag one of unlinkedTags. Lines starting with # are
// comments. It maps each function to its reason.
func parseUnlinked(s string) (map[string]string, error) {
	m := map[string]string{}
	for i, line := range strings.Split(s, "\n") {
		if strings.TrimSpace(line) == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, "#")
		name, reason = strings.TrimSpace(name), strings.TrimSpace(reason)
		tag, who, _ := strings.Cut(reason, ":")
		if !slices.Contains(unlinkedTags, tag) || strings.TrimSpace(who) == "" {
			return nil, fmt.Errorf("line %d: %q: want \"pkg.Func  # %s: who needs it\"",
				i+1, line, strings.Join(unlinkedTags, "|"))
		}
		if _, dup := m[name]; dup {
			return nil, fmt.Errorf("line %d: %s is listed twice", i+1, name)
		}
		m[name] = reason
	}
	return m, nil
}

// mapKeys returns m's keys, sorted.
func mapKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// TestNormaliseSymbol pins how linker symbols map to declared functions,
// one row for each form the daemons' binaries hold.
func TestNormaliseSymbol(t *testing.T) {
	const d = "scouts/cmd/scoutd"
	for _, c := range []struct{ sym, want string }{
		{"scouts/internal/core.Train", "core.Train"},
		{"scouts/internal/core.(*Scout).Predict", "core.Scout.Predict"},
		{"scouts/internal/gateway.nowhere.Header", "gateway.nowhere.Header"},
		{"scouts/internal/faults.(*machine[go.shape.int64]).allow", "faults.machine.allow"},
		{"scouts/internal/faults.(*machine[go.shape.struct { a int; b []string }]).record", "faults.machine.record"},
		{"scouts/internal/floatsort.Sort[go.shape.float64]", "floatsort.Sort"},
		{"scouts/internal/ml/forest.Train.func2.1", "ml/forest.Train"},
		{"scouts/internal/core.(*Scout).predict.deferwrap1", "core.Scout.predict"},
		{"scouts/internal/gateway.(*Gateway).RunProber.gowrap1", "gateway.Gateway.RunProber"},
		{"scouts/internal/gateway.(*Gateway).handleDrain-fm", "gateway.Gateway.handleDrain"},
		{"scouts/internal/httpx.init.0", "httpx.init"},
		{"scouts/internal/httpx.init.func1", "httpx.init"},
		{"main.main", "cmd/scoutd.main"},
		{"main.(*flagList).Set", "cmd/scoutd.flagList.Set"},
	} {
		if got, ok := normaliseSymbol(c.sym, d); !ok || got != c.want {
			t.Errorf("normaliseSymbol(%q) = %q, %v; want %q", c.sym, got, ok, c.want)
		}
	}
	for _, sym := range []string{"runtime.main", "net/http.(*Server).Serve", "type:.eq.scouts/internal/core.Prediction"} {
		if got, ok := normaliseSymbol(sym, d); ok {
			t.Errorf("normaliseSymbol(%q) = %q, want no module function", sym, got)
		}
	}
}
