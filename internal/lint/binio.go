package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// BinIO guards the binary decode paths PR 7 introduced (scoutpack, the
// SFF1 forest sections, the .pack disk envelope): a function that takes
// a []byte parameter and reads fixed-width integers out of it with
// encoding/binary's ByteOrder methods is parsing untrusted bytes, and
// binary.LittleEndian.Uint32(b[off:]) panics — it does not error — when
// the slice is short. Such a function must compare len() of that
// parameter somewhere before decoding; a torn download or truncated
// model file must surface as a quarantine, not a crash in the serving
// process.
//
// The check is function-local and deliberately coarse: any comparison
// involving len(param) (directly, or inside arithmetic like
// `n > len(data)-12`) marks the parameter guarded for the whole
// function. Decodes of locally-built slices (e.g. a sub-slice the
// caller already validated and re-sliced into a fresh variable) are not
// traced — only direct reads of the raw parameter are held to the rule.
var BinIO = &Analyzer{
	Name: "binio",
	Doc:  "encoding/binary decodes of a []byte parameter need a len() bounds check",
	Run:  runBinIO,
}

// binaryOrderReads are the encoding/binary ByteOrder methods that panic
// on short input.
var binaryOrderReads = map[string]bool{
	"Uint16": true,
	"Uint32": true,
	"Uint64": true,
}

func runBinIO(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkBinIOFunc(p, fd)
		}
	}
}

func checkBinIOFunc(p *Pass, fd *ast.FuncDecl) {
	// Collect the []byte parameters — the function's untrusted inputs.
	byteParams := map[types.Object]bool{}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			obj := p.Info.Defs[name]
			if obj != nil && isByteSlice(obj.Type()) {
				byteParams[obj] = true
			}
		}
	}
	if len(byteParams) == 0 {
		return
	}

	// A parameter is guarded once len(param) participates in any
	// comparison — if conditions, loop conditions, and arithmetic
	// inside them (`if n > len(data)-12`) all count.
	guarded := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || !isComparisonOp(be.Op) {
			return true
		}
		for _, side := range []ast.Expr{be.X, be.Y} {
			ast.Inspect(side, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok || !isBuiltin(p.Info, call, "len") || len(call.Args) != 1 {
					return true
				}
				if obj := sliceRootObject(p.Info, call.Args[0]); obj != nil && byteParams[obj] {
					guarded[obj] = true
				}
				return true
			})
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		fn := calleeFunc(p.Info, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "encoding/binary" || !binaryOrderReads[fn.Name()] {
			return true
		}
		obj := sliceRootObject(p.Info, call.Args[0])
		if obj == nil || !byteParams[obj] || guarded[obj] {
			return true
		}
		p.Reportf(call.Pos(), "binary.%s reads parameter %q with no len() bounds check in this function; short input panics instead of erroring", fn.Name(), obj.Name())
		return true
	})
}

// isByteSlice reports whether t is []byte (or a named alias of it).
func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// isComparisonOp reports whether op yields a bool from two ordered
// operands.
func isComparisonOp(op token.Token) bool {
	switch op {
	case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
		return true
	}
	return false
}

// sliceRootObject resolves b, b[off:], b[a:b:c] and b[i] down to the
// variable being sliced, or nil for anything more indirect.
func sliceRootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.SliceExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.Ident:
			if obj := info.Uses[v]; obj != nil {
				return obj
			}
			return info.Defs[v]
		default:
			return nil
		}
	}
}
