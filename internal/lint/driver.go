package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// Config drives one lint run.
type Config struct {
	// Root is the directory to lint: the module root for a whole-repo
	// run, or any subtree (the fixture harness points it at a testdata
	// directory).
	Root string
}

// Run discovers every package under cfg.Root, type-checks them in
// dependency order, runs the analyzer catalog, applies //scout:allow
// suppressions and returns the surviving findings sorted by position.
// The error is non-nil only for driver-level failures (unreadable tree,
// syntax or type errors) — findings alone never produce an error.
func Run(cfg Config) ([]Diagnostic, error) {
	analyzers := All()
	root, err := filepath.Abs(cfg.Root)
	if err != nil {
		return nil, err
	}
	moduleRoot, modulePath := findModule(root)
	pkgs, err := discover(root, moduleRoot, modulePath)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	if err := parseAll(fset, pkgs, modulePath); err != nil {
		return nil, err
	}
	pkgs, err = loadClosure(fset, pkgs, moduleRoot, modulePath)
	if err != nil {
		return nil, err
	}
	order, err := dependencyOrder(pkgs)
	if err != nil {
		return nil, err
	}

	imp := &moduleImporter{fset: fset, module: map[string]*types.Package{}}
	var diags []Diagnostic
	for _, pd := range order {
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(pd.importPath, fset, pd.files, info)
		if err != nil {
			return nil, fmt.Errorf("typecheck %s: %w", pd.importPath, err)
		}
		imp.module[pd.importPath] = tpkg

		if !pd.analyze {
			continue // dependency loaded only so the root's packages type-check
		}
		pass := &Pass{Fset: fset, Files: pd.files, Info: info, Pkg: tpkg, RelDir: pd.relDir}
		pass.report = func(d Diagnostic) { diags = append(diags, d) }
		for _, a := range analyzers {
			pass.check = a.Name
			a.Run(pass)
		}
	}

	analyzed := pkgs[:0:0]
	for _, pd := range pkgs {
		if pd.analyze {
			analyzed = append(analyzed, pd)
		}
	}
	diags = suppress(fset, analyzed, analyzers, diags)
	sortDiagnostics(diags)
	return diags, nil
}

// pkgDir is one directory of non-test Go files.
type pkgDir struct {
	dir        string // absolute
	relDir     string // lint-root-relative, "" for the root itself
	importPath string
	analyze    bool // false for packages loaded only as dependencies
	goFiles    []string
	files      []*ast.File
	imports    map[string]bool // module-internal imports only
}

// skipDir names directories the walk never descends into: VCS state,
// fixture trees (they are linted on demand, with their own expectations)
// and the underscore/dot dirs the go tool itself ignores.
func skipDir(name string) bool {
	return name == "testdata" || name == "vendor" || name == "node_modules" ||
		strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

var moduleRE = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// findModule walks up from root looking for a go.mod, so a subtree lint
// (`scoutlint internal/lint`) derives real import paths and can resolve
// module-internal imports that point outside the subtree. Roots outside
// any module — bare fixture trees — get a synthetic "lintfixture" path;
// their packages never import each other, so it only needs to be unique.
func findModule(root string) (moduleRoot, modulePath string) {
	for dir := root; ; {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			if m := moduleRE.FindSubmatch(data); m != nil {
				return dir, string(m[1])
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return root, "lintfixture"
		}
		dir = parent
	}
}

// discover walks root for directories containing non-test Go files.
// Import paths are moduleRoot-relative ("scouts/internal/serving");
// relDir stays root-relative, because the path-scoped analyzer
// exemptions (cmd/, examples/) are about where a package sits under the
// tree being linted, not under the module.
func discover(root, moduleRoot, modulePath string) ([]*pkgDir, error) {
	var pkgs []*pkgDir
	byDir := map[string]*pkgDir{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && skipDir(d.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		pd := byDir[dir]
		if pd == nil {
			rel, err := filepath.Rel(root, dir)
			if err != nil {
				return err
			}
			if rel == "." {
				rel = ""
			}
			rel = filepath.ToSlash(rel)
			modRel, err := filepath.Rel(moduleRoot, dir)
			if err != nil {
				return err
			}
			ip := modulePath
			if modRel != "." {
				ip = modulePath + "/" + filepath.ToSlash(modRel)
			}
			pd = &pkgDir{dir: dir, relDir: rel, importPath: ip, analyze: true, imports: map[string]bool{}}
			byDir[dir] = pd
			pkgs = append(pkgs, pd)
		}
		pd.goFiles = append(pd.goFiles, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	slices.SortFunc(pkgs, func(a, b *pkgDir) int { return strings.Compare(a.dir, b.dir) })
	for _, pd := range pkgs {
		slices.Sort(pd.goFiles)
	}
	return pkgs, nil
}

// parseAll parses every discovered file (with comments, needed for both
// directives and suppressions) and records module-internal imports.
func parseAll(fset *token.FileSet, pkgs []*pkgDir, modulePath string) error {
	for _, pd := range pkgs {
		if err := parsePkg(fset, pd, modulePath); err != nil {
			return err
		}
	}
	return nil
}

// parsePkg parses one package directory's files and records its
// module-internal imports (by modulePath prefix, whether or not the
// imported package was discovered under the lint root — loadClosure
// pulls in the rest).
func parsePkg(fset *token.FileSet, pd *pkgDir, modulePath string) error {
	prefix := modulePath + "/"
	for _, path := range pd.goFiles {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pd.files = append(pd.files, f)
		for _, im := range f.Imports {
			ip, err := strconv.Unquote(im.Path.Value)
			if err != nil {
				continue
			}
			if ip == modulePath || strings.HasPrefix(ip, prefix) {
				pd.imports[ip] = true
			}
		}
	}
	return nil
}

// loadClosure resolves module-internal imports that were not discovered
// under the lint root: each is mapped back to its directory under the
// module root, parsed, and added with analyze=false — type-check fodder,
// never a source of findings. Runs to a fixpoint so transitive
// dependencies load too.
func loadClosure(fset *token.FileSet, pkgs []*pkgDir, moduleRoot, modulePath string) ([]*pkgDir, error) {
	byPath := map[string]*pkgDir{}
	for _, pd := range pkgs {
		byPath[pd.importPath] = pd
	}
	queue := slices.Clone(pkgs)
	for len(queue) > 0 {
		pd := queue[0]
		queue = queue[1:]
		deps := make([]string, 0, len(pd.imports))
		for ip := range pd.imports {
			deps = append(deps, ip)
		}
		slices.Sort(deps)
		for _, ip := range deps {
			if byPath[ip] != nil {
				continue
			}
			rel := strings.TrimPrefix(strings.TrimPrefix(ip, modulePath), "/")
			dir := filepath.Join(moduleRoot, filepath.FromSlash(rel))
			entries, err := os.ReadDir(dir)
			if err != nil {
				return nil, fmt.Errorf("resolve module-internal import %q: %w", ip, err)
			}
			np := &pkgDir{dir: dir, relDir: filepath.ToSlash(rel), importPath: ip, imports: map[string]bool{}}
			for _, e := range entries {
				name := e.Name()
				if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
					continue
				}
				np.goFiles = append(np.goFiles, filepath.Join(dir, name))
			}
			if len(np.goFiles) == 0 {
				return nil, fmt.Errorf("resolve module-internal import %q: no Go files in %s", ip, dir)
			}
			slices.Sort(np.goFiles)
			if err := parsePkg(fset, np, modulePath); err != nil {
				return nil, err
			}
			byPath[ip] = np
			pkgs = append(pkgs, np)
			queue = append(queue, np)
		}
	}
	return pkgs, nil
}

// dependencyOrder topologically sorts the packages so every module-
// internal import is type-checked before its importer.
func dependencyOrder(pkgs []*pkgDir) ([]*pkgDir, error) {
	byPath := map[string]*pkgDir{}
	for _, pd := range pkgs {
		byPath[pd.importPath] = pd
	}
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := map[string]int{}
	var order []*pkgDir
	var visit func(pd *pkgDir) error
	visit = func(pd *pkgDir) error {
		switch state[pd.importPath] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("import cycle through %s", pd.importPath)
		}
		state[pd.importPath] = visiting
		deps := make([]string, 0, len(pd.imports))
		for ip := range pd.imports {
			deps = append(deps, ip)
		}
		slices.Sort(deps)
		for _, ip := range deps {
			if dep := byPath[ip]; dep != nil {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		state[pd.importPath] = done
		order = append(order, pd)
		return nil
	}
	for _, pd := range pkgs {
		if err := visit(pd); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// moduleImporter resolves module-internal imports from the packages the
// driver already checked and everything else from the toolchain: the gc
// importer (compiled export data) first — it is fast — falling back to
// the source importer for toolchains that ship no stdlib export data.
type moduleImporter struct {
	fset   *token.FileSet
	module map[string]*types.Package
	gc     types.Importer
	source types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m.module[path]; ok {
		return pkg, nil
	}
	if m.gc == nil {
		m.gc = importer.ForCompiler(m.fset, "gc", nil)
	}
	pkg, gcErr := m.gc.Import(path)
	if gcErr == nil {
		return pkg, nil
	}
	if m.source == nil {
		m.source = importer.ForCompiler(m.fset, "source", nil)
	}
	pkg, srcErr := m.source.Import(path)
	if srcErr != nil {
		return nil, fmt.Errorf("import %q: gc importer: %v; source importer: %v", path, gcErr, srcErr)
	}
	return pkg, nil
}

// ---- suppression ----

// allowRE matches the suppression directive. The check name and a
// free-text reason are both mandatory: an exception nobody can explain
// is a bug with a comment on it. Like //go: directives, the comment
// must begin with the marker — prose that merely mentions
// "//scout:allow" is not a directive.
var allowRE = regexp.MustCompile(`^//scout:allow(\s+(\S+))?\s*(.*)`)

// suppress drops findings covered by a //scout:allow directive on the
// same line or the line directly above, and adds findings for malformed
// directives (missing reason, unknown check). It returns the surviving
// diagnostic set.
func suppress(fset *token.FileSet, pkgs []*pkgDir, analyzers []*Analyzer, diags []Diagnostic) []Diagnostic {
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	type key struct {
		file  string
		line  int
		check string
	}
	allowed := map[key]bool{}
	var extra []Diagnostic
	for _, pd := range pkgs {
		for _, f := range pd.files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := allowRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := fset.Position(c.Pos())
					check, reason := m[2], strings.TrimSpace(m[3])
					switch {
					case check == "":
						extra = append(extra, Diagnostic{File: pos.Filename, Line: pos.Line, Col: pos.Column,
							Check: "allow", Message: "scout:allow needs a check name and a reason"})
					case !known[check]:
						extra = append(extra, Diagnostic{File: pos.Filename, Line: pos.Line, Col: pos.Column,
							Check: "allow", Message: fmt.Sprintf("scout:allow names unknown check %q", check)})
					case reason == "":
						extra = append(extra, Diagnostic{File: pos.Filename, Line: pos.Line, Col: pos.Column,
							Check: "allow", Message: fmt.Sprintf("scout:allow %s needs a reason", check)})
					default:
						end := fset.Position(c.End()).Line
						allowed[key{pos.Filename, end, check}] = true
						allowed[key{pos.Filename, end + 1, check}] = true
					}
				}
			}
		}
	}
	kept := diags[:0]
	for _, d := range diags {
		if !allowed[key{d.File, d.Line, d.Check}] {
			kept = append(kept, d)
		}
	}
	return append(kept, extra...)
}
