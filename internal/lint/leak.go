package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"scouts/internal/lint/cfg"
)

// Leak flags goroutines that can block forever on a channel operation
// with no way out. A `go` statement's body (a function literal, or a
// same-package function the statement launches) is checked over its CFG:
// on every path reachable from the body's entry,
//
//   - a send outside a select must target a provably buffered channel;
//   - a receive outside a select must come from a source that
//     terminates by design — ctx.Done(), time.After, a ticker/timer's C,
//     or a chan struct{} close-signal — anything else can wait forever;
//   - a range over a channel is flagged: it leaks unless the producer
//     is guaranteed to close the channel, which a static check cannot
//     see (document real close discipline with //scout:allow);
//   - a select must offer an escape: a default, a ctx.Done()/chan
//     struct{}/time.After case, or a ticker/timer receive.
//
// Unreachable blocks (code after an unconditional return, an infinite
// loop's tail) are skipped — only ops a real execution can reach count.
var Leak = &Analyzer{
	Name: "leak",
	Doc:  "a goroutine must not block forever on a channel op with no select/done/ctx escape",
	Run:  runLeak,
}

func runLeak(p *Pass) {
	decls := packageFuncDecls(p)
	seen := map[*ast.BlockStmt]bool{}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			var body *ast.BlockStmt
			if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
				body = lit.Body
			} else if fd := declOf(p, decls, gs.Call.Fun); fd != nil {
				body = fd.Body
			}
			if body != nil && !seen[body] {
				seen[body] = true
				checkGoBody(p, body)
			}
			return true
		})
	}
}

// packageFuncDecls indexes the package's function and method
// declarations by their type object, so a `go f()` can be followed to
// f's body.
func packageFuncDecls(p *Pass) map[*types.Func]*ast.FuncDecl {
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
		}
	}
	return decls
}

// declOf resolves a function-valued expression to its same-package
// declaration, or nil.
func declOf(p *Pass, decls map[*types.Func]*ast.FuncDecl, e ast.Expr) *ast.FuncDecl {
	var id *ast.Ident
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = v
	case *ast.SelectorExpr:
		id = v.Sel
	default:
		return nil
	}
	if fn, ok := p.Info.Uses[id].(*types.Func); ok {
		return decls[fn]
	}
	return nil
}

func checkGoBody(p *Pass, body *ast.BlockStmt) {
	g := cfg.New(body)
	reach := g.Reachable()
	comms := selectComms(body)
	for _, b := range g.Blocks {
		if !reach[b] {
			continue
		}
		for _, n := range b.Nodes {
			if st, ok := n.(ast.Stmt); ok && comms[st] {
				continue // gated by its select
			}
			leakCheckNode(p, n, comms)
		}
	}
}

func leakCheckNode(p *Pass, n ast.Node, comms map[ast.Stmt]bool) {
	cfg.NodeInspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.SendStmt:
			if !bufferedChan(p, x.Chan) {
				p.Reportf(x.Pos(), "goroutine sends on unbuffered channel %s outside a select; if the receiver is gone it blocks forever — add a select with a done/ctx case or buffer the channel", types.ExprString(x.Chan))
			}
		case *ast.UnaryExpr:
			if x.Op != token.ARROW {
				return true
			}
			if !terminatingRecvSource(p.Info, x.X) {
				p.Reportf(x.Pos(), "goroutine receives on channel %s outside a select; if the sender is gone it blocks forever — add a select with a done/ctx case", types.ExprString(x.X))
			}
			return false
		case *ast.RangeStmt:
			if t := p.Info.TypeOf(x.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					p.Reportf(x.Pos(), "goroutine ranges over channel %s; it leaks unless the producer always closes the channel — prefer a select with a done/ctx case", types.ExprString(x.X))
				}
			}
		case *ast.SelectStmt:
			if !selectHasEscape(p.Info, x) {
				p.Reportf(x.Pos(), "select in goroutine has no default or done/ctx escape case; every case can block forever")
			}
		}
		return true
	})
}

// selectHasEscape reports whether a select can always make progress or
// be released: a default case, or a receive from a terminating source.
func selectHasEscape(info *types.Info, sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		cc := c.(*ast.CommClause)
		if cc.Comm == nil {
			return true
		}
		if u := commRecv(cc.Comm); u != nil && terminatingRecvSource(info, u.X) {
			return true
		}
	}
	return false
}

// terminatingRecvSource reports whether receiving from ch is bounded by
// design: ctx.Done() (released by cancellation), time.After (fires
// once), a time.Ticker/Timer channel (fires periodically), or a chan
// struct{} (the close-to-signal idiom — closing releases all readers).
func terminatingRecvSource(info *types.Info, ch ast.Expr) bool {
	ch = ast.Unparen(ch)
	if call, ok := ch.(*ast.CallExpr); ok {
		if isCtxDoneCall(info, call) {
			return true
		}
		fn := calleeFunc(info, call)
		if isPkgFunc(fn, "time", "After") || isPkgFunc(fn, "time", "Tick") {
			return true
		}
	}
	if sel, ok := ch.(*ast.SelectorExpr); ok && sel.Sel.Name == "C" {
		switch namedPath(info.TypeOf(sel.X)) {
		case "time.Ticker", "time.Timer":
			return true
		}
	}
	if t := info.TypeOf(ch); t != nil {
		if c, ok := t.Underlying().(*types.Chan); ok {
			if st, ok := c.Elem().Underlying().(*types.Struct); ok && st.NumFields() == 0 {
				return true
			}
		}
	}
	return false
}

// bufferedChan reports whether the channel expression is provably
// buffered: a make(chan T, n) in place, or a variable/field whose every
// visible definition in the package is a buffered make.
func bufferedChan(p *Pass, e ast.Expr) bool {
	e = ast.Unparen(e)
	if call, ok := e.(*ast.CallExpr); ok {
		return makeBuffered(p.Info, call)
	}
	target := exprObject(p.Info, e)
	if target == nil {
		return false
	}
	buffered := false
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if i >= len(n.Rhs) {
						break
					}
					if exprObject(p.Info, lhs) == target && makeBufferedExpr(p.Info, n.Rhs[i]) {
						buffered = true
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if i < len(n.Values) && objectOf(p.Info, name) == target && makeBufferedExpr(p.Info, n.Values[i]) {
						buffered = true
					}
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok && p.Info.Uses[id] == target && makeBufferedExpr(p.Info, n.Value) {
					buffered = true
				}
			}
			return true
		})
	}
	return buffered
}

func makeBufferedExpr(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	return ok && makeBuffered(info, call)
}

// makeBuffered reports whether the call is make(chan T, n). Any size
// expression counts — even a variable one, since a zero buffer is
// something nobody writes as make(chan T, n) on purpose.
func makeBuffered(info *types.Info, call *ast.CallExpr) bool {
	return isBuiltin(info, call, "make") && len(call.Args) == 2
}
