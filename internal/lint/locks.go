package lint

import (
	"go/ast"
	"go/token"
	"slices"
)

// Locks hardens the shared-cache and serving-hot-swap concurrency
// contracts with two checks:
//
//   - every non-deferred mu.Lock()/mu.RLock() needs a matching
//     mu.Unlock()/mu.RUnlock() (or a defer of it) somewhere in the same
//     function — cross-function lock handoff is banned in this repo;
//   - no mu.Lock() while mu.RLock() is still held on the same receiver:
//     sync.RWMutex cannot be upgraded and the goroutine self-deadlocks.
//
// By-value copies of a lock-bearing type are left to `go vet`'s
// copylocks, which `make ci` runs. The checks are intraprocedural and
// pair calls by the receiver's printed expression ("s.mu"), which matches
// how every lock in this repo is used: a struct field locked and unlocked
// in the same method.
var Locks = &Analyzer{
	Name: "locks",
	Doc:  "no Lock without Unlock in-function, no RLock→Lock upgrades",
	Run:  runLocks,
}

func runLocks(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil {
				checkLockPairing(p, fd)
			}
		}
	}
}

// lockEvent is one Lock/Unlock-family call in source order.
type lockEvent struct {
	pos      token.Pos
	name     string // Lock, Unlock, RLock, RUnlock
	recv     string // printed receiver expression, e.g. "s.mu"
	deferred bool
}

func checkLockPairing(p *Pass, fd *ast.FuncDecl) {
	var events []lockEvent
	collect := func(n ast.Node, deferred bool) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return
		}
		fn := calleeFunc(p.Info, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
			return
		}
		switch fn.Name() {
		case "Lock", "Unlock", "RLock", "RUnlock":
			events = append(events, lockEvent{
				pos: call.Pos(), name: fn.Name(), recv: recvKey(sel.X), deferred: deferred,
			})
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if ds, ok := n.(*ast.DeferStmt); ok {
			collect(ds.Call, true)
			return false // the call inside the defer is already handled
		}
		collect(n, false)
		return true
	})
	slices.SortFunc(events, func(a, b lockEvent) int { return int(a.pos - b.pos) })

	// Check 1: every acquire has a release somewhere in the function.
	released := map[string]bool{} // "recv\x00Unlock" present?
	for _, e := range events {
		if e.name == "Unlock" || e.name == "RUnlock" {
			released[e.recv+"\x00"+e.name] = true
		}
	}
	for _, e := range events {
		switch e.name {
		case "Lock":
			if !released[e.recv+"\x00Unlock"] {
				p.Reportf(e.pos, "%s.Lock() has no %s.Unlock() (or defer of it) in this function", e.recv, e.recv)
			}
		case "RLock":
			if !released[e.recv+"\x00RUnlock"] {
				p.Reportf(e.pos, "%s.RLock() has no %s.RUnlock() (or defer of it) in this function", e.recv, e.recv)
			}
		}
	}

	// Check 2: RLock→Lock upgrade. Walk in source order, tracking which
	// receivers hold a read lock; a deferred RUnlock releases only at
	// function exit, so it never clears the flag mid-walk.
	readHeld := map[string]bool{}
	for _, e := range events {
		switch {
		case e.name == "RLock" && !e.deferred:
			readHeld[e.recv] = true
		case e.name == "RUnlock" && !e.deferred:
			readHeld[e.recv] = false
		case e.name == "Lock" && readHeld[e.recv]:
			p.Reportf(e.pos, "%s.Lock() while %s.RLock() is held: RWMutex cannot upgrade and this deadlocks", e.recv, e.recv)
		}
	}
}
