package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotPath guards the proven zero-alloc kernels between benchmark runs.
// The AllocsPerRun tests catch allocation regressions only where a
// benchmark exists; annotating a function with a //scout:hotpath doc
// line extends the guarantee to every build. Inside an annotated
// function three allocation classes are banned:
//
//   - fmt.Sprintf / Sprint / Sprintln / Errorf / Appendf calls (each
//     formats through reflection and allocates the result);
//   - append into a fresh local slice that the function returns (the
//     caller-supplied-buffer pattern — FeaturizeInto, PredictProbBatch —
//     is the sanctioned alternative);
//   - interface-boxing conversions at call sites: passing a concrete
//     non-pointer value (struct, slice, string, number) to an interface
//     parameter heap-allocates the box. Pointers, maps, channels and
//     funcs are pointer-shaped and box for free, so they pass.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc:  "//scout:hotpath functions must not format, box into interfaces, or grow escaping fresh slices",
	Run:  runHotPath,
}

// HotPathDirective is the doc-comment line that opts a function into the
// check.
const HotPathDirective = "//scout:hotpath"

var fmtAllocFuncs = map[string]bool{
	"Sprintf": true, "Sprint": true, "Sprintln": true,
	"Errorf": true, "Appendf": true,
}

func runHotPath(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotPath(fd) {
				continue
			}
			checkHotFunc(p, fd)
		}
	}
}

func isHotPath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(strings.TrimSpace(c.Text), HotPathDirective) {
			return true
		}
	}
	return false
}

func checkHotFunc(p *Pass, fd *ast.FuncDecl) {
	fresh := map[types.Object]token.Pos{} // slices allocated in this function
	appended := map[types.Object]token.Pos{}
	returned := map[types.Object]bool{}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.CallExpr:
			checkHotCall(p, s)
			if isBuiltin(p.Info, s, "append") && len(s.Args) > 0 {
				if obj := objectOf(p.Info, s.Args[0]); obj != nil {
					if _, seen := appended[obj]; !seen {
						appended[obj] = s.Pos()
					}
				}
			}
		case *ast.AssignStmt:
			if s.Tok != token.DEFINE {
				return true
			}
			for i, lhs := range s.Lhs {
				if i >= len(s.Rhs) {
					break
				}
				obj := objectOf(p.Info, lhs)
				if obj == nil || !isSliceType(obj.Type()) {
					continue
				}
				if isFreshSliceExpr(p.Info, s.Rhs[i]) {
					fresh[obj] = s.Pos()
				}
			}
		case *ast.DeclStmt:
			gd, ok := s.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 {
					continue
				}
				for _, name := range vs.Names {
					if obj := p.Info.Defs[name]; obj != nil && isSliceType(obj.Type()) {
						fresh[obj] = name.Pos()
					}
				}
			}
		case *ast.ReturnStmt:
			for _, res := range s.Results {
				if obj := objectOf(p.Info, res); obj != nil {
					returned[obj] = true
				}
			}
		}
		return true
	})

	// Named results are returned by definition.
	if fd.Type.Results != nil {
		for _, field := range fd.Type.Results.List {
			for _, name := range field.Names {
				if obj := p.Info.Defs[name]; obj != nil {
					returned[obj] = true
				}
			}
		}
	}

	for obj, appendPos := range appended {
		if _, isFresh := fresh[obj]; isFresh && returned[obj] {
			p.Reportf(appendPos,
				"hot path grows fresh slice %q and returns it; take a caller-supplied buffer (the FeaturizeInto pattern) instead",
				obj.Name())
		}
	}
}

// checkHotCall flags formatting calls and interface-boxing arguments.
func checkHotCall(p *Pass, call *ast.CallExpr) {
	fn := calleeFunc(p.Info, call)
	if fn == nil {
		return
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && fmtAllocFuncs[fn.Name()] {
		p.Reportf(call.Pos(), "hot path calls fmt.%s, which formats through reflection and allocates", fn.Name())
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var paramType types.Type
		switch {
		case i < params.Len()-1 || (i < params.Len() && !sig.Variadic()):
			paramType = params.At(i).Type()
		case sig.Variadic() && params.Len() > 0:
			if call.Ellipsis.IsValid() {
				paramType = params.At(params.Len() - 1).Type()
			} else if sl, okSlice := params.At(params.Len() - 1).Type().Underlying().(*types.Slice); okSlice {
				paramType = sl.Elem()
			}
		}
		if paramType == nil {
			continue
		}
		if _, isTypeParam := paramType.(*types.TypeParam); isTypeParam {
			continue // instantiated with the concrete argument type: no box
		}
		if _, isIface := paramType.Underlying().(*types.Interface); !isIface {
			continue
		}
		tv, okType := p.Info.Types[arg]
		if !okType || tv.Type == nil {
			continue
		}
		at := tv.Type
		if tv.IsNil() {
			continue
		}
		if _, already := at.Underlying().(*types.Interface); already {
			continue
		}
		if pointerShaped(at) {
			continue
		}
		p.Reportf(arg.Pos(),
			"hot path boxes %s into interface parameter of %s.%s (allocates); keep the call concrete or pass a pointer",
			at.String(), pkgName(fn), fn.Name())
	}
}

func pkgName(fn *types.Func) string {
	if fn.Pkg() == nil {
		return "?"
	}
	return fn.Pkg().Name()
}

func isSliceType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

// isFreshSliceExpr reports whether the expression allocates a new slice:
// a composite literal, a make call, or an append to one of those forms
// inline. Reslicing an existing buffer (pool.Get, param[:0]) is not
// fresh.
func isFreshSliceExpr(info *types.Info, e ast.Expr) bool {
	switch v := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		if isBuiltin(info, v, "make") {
			return true
		}
		if isBuiltin(info, v, "append") && len(v.Args) > 0 {
			if id, ok := ast.Unparen(v.Args[0]).(*ast.Ident); ok && id.Name == "nil" {
				return true
			}
			return isFreshSliceExpr(info, v.Args[0])
		}
	}
	return false
}

// pointerShaped reports whether boxing a value of t into an interface
// stores the value directly in the interface word — no allocation.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return true
	case *types.Basic:
		b := t.Underlying().(*types.Basic)
		return b.Kind() == types.UnsafePointer
	}
	return false
}
