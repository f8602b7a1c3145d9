package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"

	"scouts/internal/lint/cfg"
	"scouts/internal/lint/flow"
)

// FsyncRename enforces the crash-safety discipline PR 5 established by
// convention: committing a freshly written file with os.Rename is only
// durable if the file was File.Sync()ed before the rename (or the data
// may be lost) and the parent directory is fsynced after it (or the
// directory entry may be lost). The check is flow-sensitive over each
// function's CFG, with two facts:
//
//   - synced (must-set, intersection join): the file handles whose
//     last write was followed by a Sync on every path. A rename whose
//     source was opened in-function but is not in the set is reported
//     at the rename.
//   - pending (may-multiset, per-key max join, counts capped at 2): the
//     rename sites whose directory sync has not happened yet. A rename
//     guarded by `if err := os.Rename(...); err != nil { return ... }`
//     is forgiven one count on the error return — the rename did not
//     commit there — but a second count survives, which is exactly how
//     an error return after an earlier loop iteration's successful
//     rename is caught. Any pending count that reaches the function's
//     exit without a directory sync is reported.
//
// A directory sync is a Sync on an os.Open handle (the syncDir shape),
// a call to a same-package function containing one, or either deferred.
// Obligations compose across the package: an unexported function whose
// exit carries pending renames is a "renamer", and calls to it push the
// obligation to its callers instead of being reported in place —
// writeFileSync-style helpers stay silent while an exported entry point
// that forgets the directory sync is flagged.
var FsyncRename = &Analyzer{
	Name: "fsyncrename",
	Doc:  "os.Rename of a freshly written file needs File.Sync before and a directory sync after, on every path",
	Run:  runFsyncRename,
}

// frFunc is one function's summary: its graph plus the syntactic facts
// the transfer function needs.
type frFunc struct {
	fn    *types.Func
	graph *cfg.Graph
	// openOf maps an os.Create/os.OpenFile/os.WriteFile call to the
	// file identity it (re)writes: the handle variable's object, or the
	// os.WriteFile call itself (which has no handle and never syncs).
	openOf map[*ast.CallExpr]any
	// handles are write handles; dirs are os.Open handles, whose Sync
	// is a directory sync.
	handles map[types.Object]bool
	dirs    map[types.Object]bool
	// fileOfPath maps the path argument's expression text to the file
	// identity, so os.Rename(src, dst) can recognize a fresh file.
	fileOfPath map[string]any
	// forgives maps a return statement inside a `if err := F(...);
	// err != nil` body to F's position: the guarded call failed on that
	// path, so one pending count for it is dropped.
	forgives map[*ast.ReturnStmt][]token.Pos
	// describe renders a pending site for the report (filled in by the
	// transfer function; a given site always renders the same way).
	describe map[token.Pos]string
	// syncsDir marks the syncDir shape (Sync on an os.Open handle).
	syncsDir bool
	// discharged marks a deferred directory sync covering every exit.
	discharged bool
}

// frFact is the dataflow fact; see the Analyzer comment.
type frFact struct {
	synced  map[any]bool
	pending map[token.Pos]int
}

func (f frFact) clone() frFact {
	s := make(map[any]bool, len(f.synced))
	for k, v := range f.synced {
		s[k] = v
	}
	pd := make(map[token.Pos]int, len(f.pending))
	for k, v := range f.pending {
		pd[k] = v
	}
	return frFact{synced: s, pending: pd}
}

func (f frFact) withSynced(id any) frFact  { g := f.clone(); g.synced[id] = true; return g }
func (f frFact) clearSynced(id any) frFact { g := f.clone(); delete(g.synced, id); return g }

// maxPending caps a site's count: "more than once" needs no more
// resolution than two, and the cap keeps the lattice finite.
const maxPending = 2

func (f frFact) withPending(pos token.Pos) frFact {
	g := f.clone()
	if g.pending[pos] < maxPending {
		g.pending[pos]++
	}
	return g
}

func (f frFact) forgiven(positions []token.Pos) frFact {
	g := f.clone()
	for _, pos := range positions {
		if c := g.pending[pos]; c > 1 {
			g.pending[pos] = c - 1
		} else {
			delete(g.pending, pos)
		}
	}
	return g
}

func (f frFact) clearPending() frFact {
	g := f.clone()
	g.pending = map[token.Pos]int{}
	return g
}

type frLattice struct{}

func (frLattice) Entry() frFact {
	return frFact{synced: map[any]bool{}, pending: map[token.Pos]int{}}
}

func (frLattice) Join(a, b frFact) frFact {
	out := frFact{synced: map[any]bool{}, pending: map[token.Pos]int{}}
	for k := range a.synced {
		if b.synced[k] {
			out.synced[k] = true
		}
	}
	for k, v := range a.pending {
		out.pending[k] = v
	}
	for k, v := range b.pending {
		if v > out.pending[k] {
			out.pending[k] = v
		}
	}
	return out
}

func (frLattice) Equal(a, b frFact) bool {
	if len(a.synced) != len(b.synced) || len(a.pending) != len(b.pending) {
		return false
	}
	for k := range a.synced {
		if !b.synced[k] {
			return false
		}
	}
	for k, v := range a.pending {
		if b.pending[k] != v {
			return false
		}
	}
	return true
}

func runFsyncRename(p *Pass) {
	if !packageRenames(p) {
		return
	}
	var fns []*frFunc
	byObj := map[*types.Func]*frFunc{}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			ff := newFrFunc(p, fd, fn)
			fns = append(fns, ff)
			byObj[fn] = ff
		}
	}

	dirSyncer := map[*types.Func]bool{}
	for _, ff := range fns {
		if ff.syncsDir {
			dirSyncer[ff.fn] = true
		}
	}
	for _, ff := range fns {
		ff.discharged = deferredDirSync(p, ff.graph, dirSyncer)
	}
	callers := map[*types.Func]int{}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if fn := calleeFunc(p.Info, call); fn != nil && byObj[fn] != nil {
					callers[fn]++
				}
			}
			return true
		})
	}

	// Renamer fixpoint: a function whose exit carries pending renames
	// (and has no deferred discharge) pushes the obligation to callers;
	// that can make the callers renamers in turn.
	renamer := map[*types.Func]bool{}
	for pass := 0; pass < len(fns)+2; pass++ {
		changed := false
		for _, ff := range fns {
			res := frForward(p, ff, dirSyncer, renamer)
			val := !ff.discharged && len(frExitPending(res, ff)) > 0
			if val != renamer[ff.fn] {
				renamer[ff.fn] = val
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	for _, ff := range fns {
		res := frForward(p, ff, dirSyncer, renamer)
		// Sync-before violations: replay each reachable block.
		for _, b := range ff.graph.Blocks {
			in, ok := res.At(b)
			if !ok {
				continue
			}
			for _, n := range b.Nodes {
				in = frStep(p, ff, dirSyncer, renamer, n, in, true)
			}
		}
		// Directory-sync obligations at exit.
		if ff.discharged {
			continue
		}
		pend := frExitPending(res, ff)
		if len(pend) == 0 {
			continue
		}
		if !ff.fn.Exported() && callers[ff.fn] > 0 {
			continue // the obligation propagates to the callers
		}
		poss := make([]token.Pos, 0, len(pend))
		for pos := range pend {
			poss = append(poss, pos)
		}
		slices.Sort(poss)
		for _, pos := range poss {
			p.Reportf(pos, "%s can reach return with no directory sync; fsync the parent directory after the rename (a deferred syncDir-style call works) or the entry may be lost on crash", pend[pos])
		}
	}
}

// frExitPending returns the pending sites at the function's exit, with
// their report descriptions, or nil when the exit is unreachable.
func frExitPending(res *flow.Result[frFact], ff *frFunc) map[token.Pos]string {
	exit, ok := res.At(ff.graph.Exit)
	if !ok || len(exit.pending) == 0 {
		return nil
	}
	out := map[token.Pos]string{}
	for pos := range exit.pending {
		out[pos] = ff.describe[pos]
	}
	return out
}

func frForward(p *Pass, ff *frFunc, dirSyncer, renamer map[*types.Func]bool) *flow.Result[frFact] {
	tf := func(b *cfg.Block, in frFact) frFact {
		out := in
		for _, n := range b.Nodes {
			out = frStep(p, ff, dirSyncer, renamer, n, out, false)
		}
		return out
	}
	return flow.Forward(ff.graph, frLattice{}, tf)
}

// frStep is the transfer function for one node, shared between the
// fixpoint (report=false) and the reporting replay (report=true).
func frStep(p *Pass, ff *frFunc, dirSyncer, renamer map[*types.Func]bool, n ast.Node, in frFact, report bool) frFact {
	out := in
	cfg.NodeInspect(n, func(x ast.Node) bool {
		if ret, ok := x.(*ast.ReturnStmt); ok {
			if poss := ff.forgives[ret]; len(poss) > 0 {
				out = out.forgiven(poss)
			}
			return true
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ff.openOf[call]; ok {
			out = out.clearSynced(id) // a (re)write leaves the file dirty
			return true
		}
		fn := calleeFunc(p.Info, call)
		if fn == nil {
			return true
		}
		if sig, _ := fn.Type().(*types.Signature); sig != nil && sig.Recv() != nil &&
			namedPath(sig.Recv().Type()) == "os.File" {
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := exprObject(p.Info, sel.X)
			if obj == nil {
				return true
			}
			switch fn.Name() {
			case "Sync":
				if ff.handles[obj] {
					out = out.withSynced(obj)
				}
				if ff.dirs[obj] {
					out = out.clearPending() // directory fsync
				}
			case "Write", "WriteString", "WriteAt", "ReadFrom", "Truncate":
				if ff.handles[obj] {
					out = out.clearSynced(obj)
				}
			}
			return true
		}
		if isPkgFunc(fn, "os", "Rename") && len(call.Args) == 2 {
			src := types.ExprString(call.Args[0])
			id, fresh := ff.fileOfPath[src]
			if !fresh {
				return true // renaming a pre-existing file is out of scope
			}
			if report && !out.synced[id] {
				if _, viaWriteFile := id.(*ast.CallExpr); viaWriteFile {
					p.Reportf(call.Pos(), "os.Rename(%s, %s) commits a file written with os.WriteFile, which never fsyncs; open-write-Sync-close before renaming or the data may be lost on crash", src, types.ExprString(call.Args[1]))
				} else {
					p.Reportf(call.Pos(), "os.Rename(%s, %s) commits a file with no File.Sync on some path to this rename; sync before renaming or the data may be lost on crash", src, types.ExprString(call.Args[1]))
				}
			}
			out = out.withPending(call.Pos())
			ff.describe[call.Pos()] = fmt.Sprintf("os.Rename(%s, %s)", src, types.ExprString(call.Args[1]))
			return true
		}
		switch {
		case dirSyncer[fn]:
			out = out.clearPending()
		case renamer[fn]:
			out = out.withPending(call.Pos())
			ff.describe[call.Pos()] = fmt.Sprintf("call to %s (which renames a freshly written file)", fn.Name())
		}
		return true
	})
	return out
}

// newFrFunc builds one function's syntactic summary.
func newFrFunc(p *Pass, fd *ast.FuncDecl, fn *types.Func) *frFunc {
	ff := &frFunc{
		fn:         fn,
		graph:      cfg.New(fd.Body),
		openOf:     map[*ast.CallExpr]any{},
		handles:    map[types.Object]bool{},
		dirs:       map[types.Object]bool{},
		fileOfPath: map[string]any{},
		forgives:   map[*ast.ReturnStmt][]token.Pos{},
		describe:   map[token.Pos]string{},
	}
	bodyInspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 || len(n.Lhs) == 0 {
				return true
			}
			call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
			if !ok {
				return true
			}
			cfn := calleeFunc(p.Info, call)
			obj := exprObject(p.Info, n.Lhs[0])
			if cfn == nil || obj == nil {
				return true
			}
			switch {
			case isPkgFunc(cfn, "os", "Create") || isPkgFunc(cfn, "os", "OpenFile"):
				ff.handles[obj] = true
				ff.openOf[call] = obj
				if len(call.Args) > 0 {
					ff.fileOfPath[types.ExprString(call.Args[0])] = obj
				}
			case isPkgFunc(cfn, "os", "Open"):
				ff.dirs[obj] = true
			}
		case *ast.CallExpr:
			if cfn := calleeFunc(p.Info, n); isPkgFunc(cfn, "os", "WriteFile") && len(n.Args) > 0 {
				ff.openOf[n] = n
				ff.fileOfPath[types.ExprString(n.Args[0])] = n
			}
		case *ast.IfStmt:
			// The forgiveness pattern: `if err := F(...); err != nil {
			// ... return ... }`. On the error branch F's effect did not
			// happen, so returns inside the body drop one pending count
			// for F's site.
			if n.Init == nil || !isErrNotNil(n.Cond) {
				return true
			}
			assign, ok := n.Init.(*ast.AssignStmt)
			if !ok || len(assign.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
			if !ok {
				return true
			}
			bodyInspect(n.Body, func(m ast.Node) bool {
				if ret, ok := m.(*ast.ReturnStmt); ok {
					ff.forgives[ret] = append(ff.forgives[ret], call.Pos())
				}
				return true
			})
		}
		return true
	})
	// The syncDir shape: a Sync on an os.Open handle.
	bodyInspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Sync" {
			return true
		}
		if obj := exprObject(p.Info, sel.X); obj != nil && ff.dirs[obj] {
			ff.syncsDir = true
		}
		return true
	})
	return ff
}

// isErrNotNil matches `x != nil`.
func isErrNotNil(cond ast.Expr) bool {
	bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || bin.Op != token.NEQ {
		return false
	}
	return isNilIdent(bin.X) || isNilIdent(bin.Y)
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// deferredDirSync reports whether one of the graph's deferred calls is a
// directory sync: a call to a same-package dir-syncing function, or a
// function literal containing one (possibly conditionally — the defer
// runs at every exit, which is the property the check needs).
func deferredDirSync(p *Pass, g *cfg.Graph, dirSyncer map[*types.Func]bool) bool {
	for _, call := range g.Defers {
		if fn := calleeFunc(p.Info, call); fn != nil && dirSyncer[fn] {
			return true
		}
		lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit)
		if !ok {
			continue
		}
		found := false
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				if fn := calleeFunc(p.Info, c); fn != nil && dirSyncer[fn] {
					found = true
					return false
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// bodyInspect walks a function body without descending into nested
// function literals: their statements belong to other functions.
func bodyInspect(body *ast.BlockStmt, f func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return f(n)
	})
}

// packageRenames reports whether any file calls os.Rename — the cheap
// gate that keeps the whole analysis off packages that never touch the
// persistence path.
func packageRenames(p *Pass) bool {
	for _, f := range p.Files {
		renames := false
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if isPkgFunc(calleeFunc(p.Info, call), "os", "Rename") {
					renames = true
					return false
				}
			}
			return !renames
		})
		if renames {
			return true
		}
	}
	return false
}
