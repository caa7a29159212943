package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

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

// AnalyzerDeterminismTaint is the module-wide successor of the old
// per-package determinism check. Two layers:
//
//  1. Inside the simulation core and service layers (everything outside
//     cmd/, examples/, experiments/) ambient sources — wall clock,
//     process environment, global math/rand — are forbidden outright,
//     exactly as before: these packages must be pure functions of
//     (spec, seed) everywhere, not just on the paths we can trace.
//
//  2. The driver layers were previously unchecked. Now a source inside
//     driver code is flagged when the function containing it is
//     reachable, through the module call graph, from a
//     fingerprint-producing root: fleet report construction
//     (fleet.buildReport / Report.Fingerprint), obs trace emission
//     (obs.Tracer.Emit), or an experiment table writer (exported
//     experiments.Run*/Fig*/Table*/Appendix*). The diagnostic carries
//     the call path so the leak is auditable. Map iteration in a
//     reachable driver function is part of layer 2: randomized order
//     leaking into an emitted table is the same class of taint.
//
// A per-package check provably misses layer 2: the source and the root
// live in different packages and the old check skipped driver paths
// entirely (the fixture pins this).
var AnalyzerDeterminismTaint = &Analyzer{
	Name:      "determinism-taint",
	Doc:       "forbid ambient time/env/global-rand in simulation code, and taint driver-layer sources reachable from fingerprint/report roots via the module call graph; blind to a path through a method call on a standard-library-typed value (e.g. v.Load().m())",
	RunModule: runDeterminismTaint,
}

func runDeterminismTaint(p *Pass) {
	// Layer 1: direct sources in non-driver packages.
	for _, pkg := range p.Mod.Pkgs {
		if isDriverPath(pkg.Path) {
			continue
		}
		for _, f := range pkg.AllFiles() {
			reportDirectSources(p, f, "")
		}
	}
	// Layer 2: call-graph taint into driver packages.
	g := p.Mod.CallGraph()
	pred := g.ReachableFrom(fingerprintRoots(g))
	for _, node := range g.Nodes {
		if node.InTest || !isDriverPath(node.Pkg.Path) {
			continue
		}
		if _, reached := pred[node]; !reached {
			continue
		}
		via := strings.Join(PathTo(pred, node), " -> ")
		reportDirectSources(p, wrapDeclAsFile(node), via)
		reportTaintedMapRanges(p, node, via)
	}
}

// fingerprintRoots returns the curated set of functions whose output is
// part of the reproducibility contract: fleet report/fingerprint
// construction, obs trace emission, and experiment table writers.
func fingerprintRoots(g *CallGraph) []*FuncNode {
	var roots []*FuncNode
	for _, node := range g.Nodes {
		if node.InTest {
			continue
		}
		seg := lastSegment(node.Pkg.Path)
		name := node.Decl.Name.Name
		recv := ""
		if node.Decl.Recv != nil && len(node.Decl.Recv.List) == 1 {
			recv = recvTypeName(node.Decl.Recv.List[0].Type)
		}
		switch {
		case seg == "fleet" && (name == "buildReport" || name == "Fingerprint"):
			roots = append(roots, node)
		case seg == "obs" && recv == "Tracer" && name == "Emit":
			roots = append(roots, node)
		case hasPathSegment(node.Pkg.Path, "experiments") && ast.IsExported(name) &&
			(strings.HasPrefix(name, "Run") || strings.HasPrefix(name, "Fig") ||
				strings.HasPrefix(name, "Table") || strings.HasPrefix(name, "Appendix")):
			roots = append(roots, node)
		}
	}
	return roots
}

// hasPathSegment reports whether any slash-separated segment of the
// import path equals seg.
func hasPathSegment(path, seg string) bool {
	for _, s := range strings.Split(path, "/") {
		if s == seg {
			return true
		}
	}
	return false
}

// declFileView lets reportDirectSources walk either a whole file
// (layer 1) or a single reachable declaration (layer 2) with the right
// import table.
type declFileView struct {
	node    ast.Node
	imports map[string]string
}

func wrapDeclAsFile(node *FuncNode) declFileView {
	return declFileView{node: node.Decl, imports: importTable(node.File)}
}

// reportDirectSources flags wall-clock/env reads, global math/rand use
// and unseeded rand.New under view. via, when non-empty, is the call
// path from a fingerprint root and is appended to the message.
func reportDirectSources(p *Pass, view any, via string) {
	var root ast.Node
	var imports map[string]string
	switch v := view.(type) {
	case *ast.File:
		root, imports = v, importTable(v)
	case declFileView:
		root, imports = v.node, v.imports
	}
	suffix := ""
	if via != "" {
		suffix = " (reaches fingerprint root via " + via + ")"
	}
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			id, name, ok := qualified(n.Fun, imports)
			if ok && randPackages[imports[id]] && name == "New" && len(n.Args) == 0 {
				p.Reportf(n.Pos(), "%s.New without an explicit seeded source; pass a source derived from the experiment seed%s", id, suffix)
			}
		case *ast.SelectorExpr:
			id, name, ok := qualified(n, imports)
			if !ok {
				return true
			}
			path := imports[id]
			if why, bad := wallClockFuncs[path][name]; bad {
				p.Reportf(n.Pos(), "%s.%s reads the ambient %s; simulation output must be a pure function of (spec, seed) — thread time through the sim clock or annotate measurement code with //lint:allow%s",
					id, name, why, suffix)
			}
			if randPackages[path] && globalRandFuncs[name] {
				p.Reportf(n.Pos(), "%s.%s draws from the global PRNG; derive a seeded stream with sim.NewRand(seed) or rng.Fork(id) instead%s",
					id, name, suffix)
			}
		}
		return true
	})
}

// reportTaintedMapRanges flags map iteration inside a driver function
// on a fingerprint path when the body appends to a slice or emits
// output and no sort follows: randomized order would leak into the
// fingerprinted artifact. Non-driver packages are covered (more
// thoroughly) by the map-order analyzer.
func reportTaintedMapRanges(p *Pass, node *FuncNode, via string) {
	info := node.Pkg.Info
	if info == nil {
		return
	}
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := info.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		if hasSortAfter(node.Decl, rs) {
			return true
		}
		leaky := false
		ast.Inspect(rs.Body, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.AssignStmt:
				for _, rhs := range m.Rhs {
					if call, ok := rhs.(*ast.CallExpr); ok {
						if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" {
							leaky = true
						}
					}
				}
			case *ast.CallExpr:
				if name, ok := calleeName(m); ok && emitMethodNames[name] {
					leaky = true
				}
			}
			return !leaky
		})
		if leaky {
			p.Reportf(rs.Pos(), "map iteration order leaks into a fingerprinted artifact (reaches fingerprint root via %s); iterate sorted keys", via)
		}
		return true
	})
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
