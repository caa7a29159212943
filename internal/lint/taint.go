package lint

import "go/ast"

// wallClockFuncs are ambient-state entry points, keyed by package path
// then function name, with the reason they break reproducibility.
var wallClockFuncs = map[string]map[string]string{
	"time": {
		"Now":   "wall clock",
		"Since": "wall clock",
		"Until": "wall clock",
	},
	"os": {
		"Getenv":    "process environment",
		"LookupEnv": "process environment",
		"Environ":   "process environment",
	},
}

// globalRandFuncs are the math/rand (and v2) package-level functions
// backed by the shared global source.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Int32": true, "Int32N": true,
	"Int64": true, "Int64N": true, "IntN": true, "N": true,
	"Uint32": true, "Uint64": true, "Uint32N": true, "Uint64N": true,
	"Uint": true, "UintN": true,
	"Float32": true, "Float64": true, "NormFloat64": true,
	"ExpFloat64": true, "Perm": true, "Shuffle": true, "Seed": true,
	"Read": true,
}

// randPackages are the ambient-PRNG standard-library packages.
var randPackages = map[string]bool{"math/rand": true, "math/rand/v2": true}

// AnalyzerDeterminismTaint forbids ambient sources — wall clock,
// process environment, global math/rand — everywhere outside cmd/ and
// examples/, test files included: the simulation core, the service
// layers and the experiments/ table writers must be pure functions of
// (spec, seed) on every path, not just on the paths a call graph can
// trace. Measurement code states its exemption with
// //lint:allow determinism-taint <reason>.
var AnalyzerDeterminismTaint = &Analyzer{
	Name: "determinism-taint",
	Doc:  "forbid ambient time/env/global-rand outside cmd/ and examples/",
	Run:  runDeterminismTaint,
}

// runDeterminismTaint flags wall-clock/env reads, global math/rand use
// and unseeded rand.New in every file of a non-driver package.
func runDeterminismTaint(p *Pass) {
	if isDriverPath(p.Pkg.Path) {
		return
	}
	for _, f := range p.Pkg.AllFiles() {
		imports := importTable(f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				id, name, ok := qualified(n.Fun, imports)
				if ok && randPackages[imports[id]] && name == "New" && len(n.Args) == 0 {
					p.Reportf(n.Pos(), "%s.New without an explicit seeded source; pass a source derived from the experiment seed", id)
				}
			case *ast.SelectorExpr:
				id, name, ok := qualified(n, imports)
				if !ok {
					return true
				}
				path := imports[id]
				if why, bad := wallClockFuncs[path][name]; bad {
					p.Reportf(n.Pos(), "%s.%s reads the ambient %s; simulation output must be a pure function of (spec, seed) — thread time through the sim clock or annotate measurement code with //lint:allow",
						id, name, why)
				}
				if randPackages[path] && globalRandFuncs[name] {
					p.Reportf(n.Pos(), "%s.%s draws from the global PRNG; derive a seeded stream with sim.NewRand(seed) or rng.Fork(id) instead",
						id, name)
				}
			}
			return true
		})
	}
}

// qualified decomposes expr as a pkg.Name selector where pkg is an
// imported package in the file's import table.
func qualified(expr ast.Expr, imports map[string]string) (pkgLocal, name string, ok bool) {
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", "", false
	}
	if _, imported := imports[id.Name]; !imported {
		return "", "", false
	}
	return id.Name, sel.Sel.Name, true
}
