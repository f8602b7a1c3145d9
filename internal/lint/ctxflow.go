package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"scouts/internal/lint/cfg"
	"scouts/internal/lint/flow"
)

// CtxFlow is the first flow-sensitive check: a function that accepts a
// context.Context promises its caller cancellation, so every operation
// that can block — channel sends and receives, bare selects, time.Sleep,
// sync waits, network and file I/O — must be dominated by a consultation
// of that context on every path from the function's entry. Consulting
// means calling ctx.Err/Done/Deadline, selecting on ctx.Done(), or
// handing the context to a callee (which then owns cancellation).
//
// The analysis is a must-analysis over the function's CFG: the fact "ctx
// has been consulted" survives a join only when it holds on both
// incoming edges, so a check inside one arm of an if does not license a
// block after the join, and a check inside a loop body does not license
// the first iteration. A select containing a ctx.Done() case (or a
// default) is itself non-blocking and counts as a consultation.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "blocking operations in a ctx-carrying function must be dominated by a ctx check or a select on ctx.Done()",
	Run:  runCtxFlow,
}

// ctxLattice is the must-consulted domain: Join is AND, so only checks
// established on every incoming path survive a merge.
type ctxLattice struct{}

func (ctxLattice) Entry() bool          { return false }
func (ctxLattice) Join(a, b bool) bool  { return a && b }
func (ctxLattice) Equal(a, b bool) bool { return a == b }

func runCtxFlow(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var ft *ast.FuncType
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				ft, body = fn.Type, fn.Body
			case *ast.FuncLit:
				ft, body = fn.Type, fn.Body
			default:
				return true
			}
			if body != nil && hasCtxParam(p.Info, ft) {
				checkCtxFlow(p, body)
			}
			return true
		})
	}
}

// hasCtxParam reports whether the signature declares a context.Context
// parameter. An unnamed (or blank) context still counts: taking one and
// then blocking unconditionally is exactly the contract violation the
// check exists for.
func hasCtxParam(info *types.Info, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		if t := info.TypeOf(field.Type); t != nil && namedPath(t) == "context.Context" {
			return true
		}
	}
	return false
}

func checkCtxFlow(p *Pass, body *ast.BlockStmt) {
	g := cfg.New(body)
	comms := selectComms(body)
	tf := func(b *cfg.Block, in bool) bool {
		out := in
		for _, n := range b.Nodes {
			out = ctxStep(p, comms, n, out, false)
		}
		return out
	}
	res := flow.Forward(g, ctxLattice{}, tf)
	// Reporting pass: replay each reachable block from its settled input
	// fact; a blocking node met with the fact still false is a finding.
	for _, b := range g.Blocks {
		in, ok := res.At(b)
		if !ok {
			continue
		}
		for _, n := range b.Nodes {
			in = ctxStep(p, comms, n, in, true)
		}
	}
}

// ctxStep is the transfer function for one block node, shared between
// the fixpoint (report=false) and the reporting replay (report=true).
func ctxStep(p *Pass, comms map[ast.Stmt]bool, n ast.Node, in bool, report bool) bool {
	consulted := in
	if st, ok := n.(ast.Stmt); ok && comms[st] {
		// A select clause's comm op: the gating select already decided
		// whether the select blocks; a ctx.Done receive marks its branch
		// as having observed cancellation.
		if commIsCtxDone(p.Info, st) {
			consulted = true
		}
		return consulted
	}
	cfg.NodeInspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.SelectStmt:
			hasDefault, hasDone := selectEscapes(p.Info, x)
			switch {
			case hasDone:
				consulted = true
			case !hasDefault && !consulted:
				if report {
					p.Reportf(x.Pos(), "select blocks with no ctx.Done() case and no default; add a case <-ctx.Done() so the caller can cancel")
				}
			}
		case *ast.RangeStmt:
			if t := p.Info.TypeOf(x.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan && !consulted && report {
					p.Reportf(x.Pos(), "range over channel %s blocks between messages with no prior ctx check; select on the channel and ctx.Done() instead", types.ExprString(x.X))
				}
			}
		case *ast.SendStmt:
			if !consulted && report {
				p.Reportf(x.Pos(), "channel send %s <- ... may block forever with no prior ctx check; use a select with a ctx.Done() case", types.ExprString(x.Chan))
			}
		case *ast.UnaryExpr:
			if x.Op != token.ARROW {
				return true
			}
			if isCtxDoneCall(p.Info, x.X) {
				// <-ctx.Done() waits for cancellation itself.
				consulted = true
				return false
			}
			if !consulted && report {
				p.Reportf(x.Pos(), "channel receive %s may block forever with no prior ctx check; use a select with a ctx.Done() case", types.ExprString(x))
			}
			return false
		case *ast.CallExpr:
			if isCtxConsult(p.Info, x) || callCarriesCtx(p.Info, x) {
				consulted = true
				return true
			}
			if !consulted && report {
				if what := blockingCallDesc(p.Info, x); what != "" {
					p.Reportf(x.Pos(), "%s with no prior ctx check; guard it with ctx.Err()/a ctx.Done() select, or pass ctx down", what)
				}
			}
		}
		return true
	})
	return consulted
}

// isCtxConsult reports whether the call reads the context's liveness:
// ctx.Err(), ctx.Done(), ctx.Deadline(). ctx.Value is a plain lookup and
// does not count.
func isCtxConsult(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Err", "Done", "Deadline":
	default:
		return false
	}
	t := info.TypeOf(sel.X)
	return t != nil && namedPath(t) == "context.Context"
}

// isCtxDoneCall reports whether e is a ctx.Done() call.
func isCtxDoneCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	return ok && isCtxConsult(info, call) && selName(call.Fun) == "Done"
}

func selName(e ast.Expr) string {
	if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	return ""
}

// callCarriesCtx reports whether any argument carries a context.Context
// into the call — delegation, after which the callee owns cancellation.
// A fresh context.Background()/TODO() does not count: it is not the
// caller's context and cancels nothing.
func callCarriesCtx(info *types.Info, call *ast.CallExpr) bool {
	for _, a := range call.Args {
		carries := false
		ast.Inspect(a, func(n ast.Node) bool {
			if carries {
				return false
			}
			if c, ok := n.(*ast.CallExpr); ok {
				fn := calleeFunc(info, c)
				if isPkgFunc(fn, "context", "Background") || isPkgFunc(fn, "context", "TODO") {
					return false
				}
			}
			if e, ok := n.(ast.Expr); ok {
				if t := info.TypeOf(e); t != nil && namedPath(t) == "context.Context" {
					carries = true
					return false
				}
			}
			return true
		})
		if carries {
			return true
		}
	}
	return false
}

// selectEscapes classifies a select's clauses: a default case makes it
// non-blocking, a <-ctx.Done() case makes it cancellation-aware.
func selectEscapes(info *types.Info, sel *ast.SelectStmt) (hasDefault, hasDone bool) {
	for _, c := range sel.Body.List {
		cc := c.(*ast.CommClause)
		if cc.Comm == nil {
			hasDefault = true
			continue
		}
		if commIsCtxDone(info, cc.Comm) {
			hasDone = true
		}
	}
	return hasDefault, hasDone
}

// commIsCtxDone reports whether a select comm statement receives from
// ctx.Done().
func commIsCtxDone(info *types.Info, comm ast.Stmt) bool {
	if u := commRecv(comm); u != nil {
		return isCtxDoneCall(info, u.X)
	}
	return false
}

// commRecv extracts the receive expression of a comm statement, or nil
// for send clauses.
func commRecv(comm ast.Stmt) *ast.UnaryExpr {
	var e ast.Expr
	switch s := comm.(type) {
	case *ast.ExprStmt:
		e = s.X
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			e = s.Rhs[0]
		}
	}
	if e == nil {
		return nil
	}
	if u, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
		return u
	}
	return nil
}

// blockingCallDesc describes a call that can block indefinitely (or for
// an unbounded I/O round trip), or returns "" for calls the check does
// not consider blocking.
func blockingCallDesc(info *types.Info, call *ast.CallExpr) string {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	path, name := fn.Pkg().Path(), fn.Name()
	sig, _ := fn.Type().(*types.Signature)
	recv := ""
	if sig != nil && sig.Recv() != nil {
		recv = namedPath(sig.Recv().Type())
	}
	switch {
	case path == "time" && name == "Sleep" && recv == "":
		return "time.Sleep blocks"
	case path == "sync" && name == "Wait" && (recv == "sync.WaitGroup" || recv == "sync.Cond"):
		return "(*" + recv + ").Wait blocks"
	case path == "net" && recv == "" && (strings.HasPrefix(name, "Dial") || strings.HasPrefix(name, "Listen")):
		return "net." + name + " performs network I/O"
	case path == "net/http" && recv == "" &&
		(name == "Get" || name == "Post" || name == "Head" || name == "PostForm"):
		return "http." + name + " performs network I/O"
	case path == "net/http" && name == "Do" && recv == "net/http.Client":
		return "(*http.Client).Do performs network I/O"
	case path == "os" && recv == "" &&
		(name == "ReadFile" || name == "WriteFile" || name == "Open" ||
			name == "OpenFile" || name == "Create" || name == "ReadDir"):
		return "os." + name + " performs file I/O"
	}
	return ""
}

// selectComms indexes the comm statements of every select in the body
// (nested function literals excluded — they are analyzed as their own
// functions), so the transfer function can tell a gated channel op from
// a bare one.
func selectComms(body *ast.BlockStmt) map[ast.Stmt]bool {
	comms := map[ast.Stmt]bool{}
	bodyInspect(body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectStmt); ok {
			for _, c := range sel.Body.List {
				if cc := c.(*ast.CommClause); cc.Comm != nil {
					comms[cc.Comm] = true
				}
			}
		}
		return true
	})
	return comms
}

// bodyInspect walks a function body without descending into nested
// function literals: their statements belong to other analyses.
func bodyInspect(body *ast.BlockStmt, f func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return f(n)
	})
}
