package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Determinism enforces the repo's bit-identity contract: every table,
// figure and model snapshot must be a pure function of its seed. Two
// sources of hidden nondeterminism are banned in library code:
//
//   - time.Now / time.Since calls outside cmd/ and examples/ (the
//     binaries own the wall clock; libraries take an injected
//     `func() time.Time` — referencing time.Now as a default value is
//     fine, calling it is not);
//   - the global math/rand source (rand.Intn, rand.Float64, rand.Seed,
//     rand.Shuffle, ...) anywhere — randomness flows through seeded
//     rand.New(rand.NewSource(seed)) instances, which the check allows.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "no wall-clock reads in library code, no unseeded global math/rand anywhere",
	Run:  runDeterminism,
}

// globalRandFuncs are the math/rand package-level functions that consume
// the shared global source. rand.New / rand.NewSource / rand.NewZipf are
// the seeded constructors and stay legal.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "NormFloat64": true, "ExpFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
}

// clockExempt reports whether the package may read the wall clock
// directly: binaries (cmd/, examples/) time their own runs. Test files
// never reach an analyzer — the driver does not parse them.
func clockExempt(relDir string) bool {
	return relDir == "cmd" || strings.HasPrefix(relDir, "cmd/") ||
		relDir == "examples" || strings.HasPrefix(relDir, "examples/")
}

func runDeterminism(p *Pass) {
	exemptClock := clockExempt(p.RelDir)
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(p.Info, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if exemptClock {
					return true
				}
				if fn.Name() == "Now" || fn.Name() == "Since" {
					p.Reportf(call.Pos(),
						"time.%s read in library code breaks snapshot reproducibility; inject a clock (func() time.Time field defaulting to time.Now)",
						fn.Name())
				}
			case "math/rand", "math/rand/v2":
				// Methods on a seeded *rand.Rand share the package path and
				// names (r.Intn, ...); only package-level calls hit the
				// global source, so methods are filtered by receiver.
				if globalRandFuncs[fn.Name()] && fn.Type().(*types.Signature).Recv() == nil {
					p.Reportf(call.Pos(),
						"rand.%s uses the global math/rand source; draw from a seeded rand.New(rand.NewSource(seed)) instead",
						fn.Name())
				}
			}
			return true
		})
	}
}
