package flow_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"scouts/internal/lint/cfg"
	"scouts/internal/lint/flow"
)

// The test analysis: a must-analysis tracking whether check() was called
// on every path. Join is AND, so a merge point is "checked" only when
// both arms checked — the join fsyncrename's synced-set uses, reduced to
// one bit.
type mustChecked struct{}

func (mustChecked) Entry() bool          { return false }
func (mustChecked) Join(a, b bool) bool  { return a && b }
func (mustChecked) Equal(a, b bool) bool { return a == b }

func transfer(b *cfg.Block, in bool) bool {
	out := in
	for _, n := range b.Nodes {
		cfg.NodeInspect(n, func(x ast.Node) bool {
			if call, ok := x.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "check" {
					out = true
				}
			}
			return true
		})
	}
	return out
}

// factAtMark runs the analysis and returns the input fact of the block
// holding mark<n>(), replayed through the block's nodes up to the mark.
func factAtMark(t *testing.T, src, mark string) bool {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", "package p\nfunc check(){}\nfunc mark1(){}\nfunc mark2(){}\n"+src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	var g *cfg.Graph
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "f" {
			g = cfg.New(fd.Body)
		}
	}
	if g == nil {
		t.Fatal("func f not found")
	}
	res := flow.Forward(g, mustChecked{}, transfer)
	for _, b := range g.Blocks {
		fact, reached := res.At(b)
		if !reached {
			continue
		}
		for _, n := range b.Nodes {
			hit := false
			cfg.NodeInspect(n, func(x ast.Node) bool {
				if id, ok := x.(*ast.Ident); ok && id.Name == mark {
					hit = true
				}
				return !hit
			})
			if hit {
				return fact
			}
			fact = transferNode(n, fact)
		}
	}
	t.Fatalf("mark %s not reached", mark)
	return false
}

func transferNode(n ast.Node, in bool) bool {
	out := in
	cfg.NodeInspect(n, func(x ast.Node) bool {
		if call, ok := x.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "check" {
				out = true
			}
		}
		return true
	})
	return out
}

func TestStraightLine(t *testing.T) {
	if factAtMark(t, `func f() { mark1() }`, "mark1") {
		t.Fatal("fact true before any check")
	}
	if !factAtMark(t, `func f() { check(); mark1() }`, "mark1") {
		t.Fatal("fact false after a check")
	}
}

func TestBranchMustJoin(t *testing.T) {
	// Checked on one arm only: the join must be unchecked.
	src := `func f(c bool) {
	if c {
		check()
	}
	mark1()
}`
	if factAtMark(t, src, "mark1") {
		t.Fatal("one-armed check must not survive the join")
	}
	// Checked on both arms: the join is checked.
	src = `func f(c bool) {
	if c {
		check()
	} else {
		check()
	}
	mark1()
}`
	if !factAtMark(t, src, "mark1") {
		t.Fatal("both-armed check must survive the join")
	}
}

func TestEarlyReturnKeepsFact(t *testing.T) {
	// The unchecked path returns early, so the fallthrough is checked.
	src := `func f(c bool) {
	if !c {
		return
	}
	check()
	mark1()
}`
	if !factAtMark(t, src, "mark1") {
		t.Fatal("early return should not pollute the surviving path")
	}
}

func TestLoopBackEdge(t *testing.T) {
	// The check happens inside the loop; the loop head joins the entry
	// path (unchecked) with the back edge (checked) — so the body's first
	// iteration fact must be unchecked.
	src := `func f(n int) {
	for i := 0; i < n; i++ {
		mark1()
		check()
	}
	mark2()
}`
	if factAtMark(t, src, "mark1") {
		t.Fatal("first iteration cannot rely on a later check")
	}
	// After the loop: the zero-iteration path never checked.
	if factAtMark(t, src, "mark2") {
		t.Fatal("zero-iteration path must dominate the loop exit")
	}
}

func TestCheckBeforeLoopSurvives(t *testing.T) {
	src := `func f(n int) {
	check()
	for i := 0; i < n; i++ {
		mark1()
	}
	mark2()
}`
	if !factAtMark(t, src, "mark1") || !factAtMark(t, src, "mark2") {
		t.Fatal("a dominating check must survive the loop")
	}
}

func TestUnreachableBlockHasNoFact(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", `package p
func f() {
	return
	_ = 1
}`, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	fd := f.Decls[0].(*ast.FuncDecl)
	g := cfg.New(fd.Body)
	res := flow.Forward(g, mustChecked{}, transfer)
	reach := g.Reachable()
	for _, b := range g.Blocks {
		_, ok := res.At(b)
		if ok && !reach[b] {
			t.Fatalf("unreachable block %d has a fact:\n%s", b.Index, g)
		}
		if !ok && reach[b] {
			t.Fatalf("reachable block %d has no fact:\n%s", b.Index, g)
		}
	}
}
