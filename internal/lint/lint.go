// Package lint is the repo's project-customized static-analysis suite:
// a from-scratch driver plus a catalog of analyzers that turn the
// invariants earlier PRs established by hand — bit-identical training at
// any worker count, zero-alloc hot kernels, reflection-free sorts,
// lock-safe shared caches — into checks the build refuses to break. Only standard-library packages are used (go/parser,
// go/ast, go/types, go/importer, go/token): the module has no
// dependencies and the linter must not be the first.
//
// The driver (driver.go) type-checks every package under a root and
// hands each analyzer the typed ASTs. Findings print as
//
//	file:line:col: [check] message
//
// and any finding can be suppressed with a trailing or preceding
//
//	//scout:allow <check> <reason>
//
// comment; an allow without a reason (or naming an unknown check) is
// itself a finding, so exceptions stay documented. cmd/scoutlint is the
// CLI; `make lint` runs it over the module and `make ci` gates on it.
package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// Diagnostic is one finding. File is the path as the driver saw it,
// Line/Col are 1-based, Check names the analyzer (or "allow" for
// malformed suppressions).
type Diagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Check, d.Message)
}

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name is the check name used in reports and //scout:allow directives.
	Name string
	// Doc is the one-line invariant the check enforces.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// Pass is everything an analyzer sees for one package: the parsed files,
// the type info, and the package's position inside the module (RelDir is
// "" for the module root, "internal/core", "cmd/scoutd", ...).
type Pass struct {
	Fset   *token.FileSet
	Files  []*ast.File
	Info   *types.Info
	Pkg    *types.Package
	RelDir string

	check  string
	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.report(Diagnostic{
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Check:   p.check,
		Message: fmt.Sprintf(format, args...),
	})
}

// All returns the full analyzer catalog in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism,
		NoMapIter,
		SortSlice,
		HotPath,
		Locks,
	}
}

// ---- shared type-resolution helpers ----

// calleeFunc resolves a call to its static callee, or nil for calls
// through function values, method values and built-ins. Explicit generic
// instantiations (f[T](x)) are unwrapped to the generic function; an
// index expression that is really a map/slice access resolves to a
// non-func object and falls out as nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch v := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(v.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(v.X)
	}
	var id *ast.Ident
	switch fn := fun.(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isBuiltin reports whether the call invokes the named builtin (append,
// make, ...), resolving through the identifier so shadowed names don't
// match.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// objectOf resolves an expression to the variable it names, or nil when
// the expression is not a plain identifier.
func objectOf(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// recvKey renders a lock receiver ("s.mu", "mu") so Lock/Unlock calls on
// the same variable can be paired syntactically.
func recvKey(e ast.Expr) string { return types.ExprString(e) }

// sortDiagnostics orders findings by file, then line, column and check,
// so the tool's output (and the test harness's comparisons) are
// deterministic — the same invariant the determinism analyzer enforces
// on the rest of the repo.
func sortDiagnostics(ds []Diagnostic) {
	slices.SortFunc(ds, func(a, b Diagnostic) int {
		if c := cmp.Compare(a.File, b.File); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Line, b.Line); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Col, b.Col); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Check, b.Check); c != 0 {
			return c
		}
		return cmp.Compare(a.Message, b.Message)
	})
}
