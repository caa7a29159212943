package lint

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"sort"
)

// Module-wide call graph. The v2 analyzers (determinism-taint,
// lock-discipline) reason about what a function *transitively* does —
// a time.Now three calls deep behind a helper in another package, an
// fsync at the bottom of CheckpointStore.Write — which a per-package
// AST walk cannot see. The graph is built once per Module, lazily, and
// shared by every analyzer in the run.
//
// Soundness caveats (documented in DESIGN.md §10): edges exist for
// static intra-module calls (local functions, pkg.Func across module
// packages, and methods on module types resolved through go/types
// selections). Calls through interface methods declared in the module
// are conservatively linked to every module type that implements the
// interface. Function *values* (callbacks stored in fields, closures
// passed as arguments) and standard-library internals are not
// traversed — std behavior is captured by the analyzers' primitive
// tables instead.

// FuncNode is one function or method declaration in the module.
type FuncNode struct {
	Pkg  *Package
	Decl *ast.FuncDecl
	File *ast.File
	// Name is the display name: "pkg.Func" or "pkg.Recv.Method" with
	// pkg the final import-path segment.
	Name string
	// Callees are the resolved static call targets, deduplicated, in
	// first-call source order (deterministic traversal order).
	Callees []*FuncNode
	// InTest marks declarations in _test.go files; the graph includes
	// them as callers of production code but analyzers generally skip
	// findings inside them.
	InTest bool
}

// CallGraph indexes every function declaration in the module.
type CallGraph struct {
	mod *Module
	// Nodes in deterministic order (package path, then position).
	Nodes []*FuncNode
	byObj map[types.Object]*FuncNode
}

// CallGraph builds (once) and returns the module's call graph.
func (m *Module) CallGraph() *CallGraph {
	if m.callgraph == nil {
		m.callgraph = buildCallGraph(m)
	}
	return m.callgraph
}

func buildCallGraph(m *Module) *CallGraph {
	g := &CallGraph{
		mod:   m,
		byObj: make(map[types.Object]*FuncNode),
	}
	// Pass 1: one node per function declaration (production files; test
	// files are included but marked, so analyzers can skip them).
	for _, pkg := range m.Pkgs {
		addDecls := func(files []*ast.File, inTest bool) {
			for _, f := range files {
				for _, decl := range f.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					node := &FuncNode{
						Pkg:    pkg,
						Decl:   fd,
						File:   f,
						Name:   funcDisplayName(pkg, fd),
						InTest: inTest,
					}
					g.Nodes = append(g.Nodes, node)
					if pkg.Info != nil {
						if obj := pkg.Info.Defs[fd.Name]; obj != nil {
							g.byObj[obj] = node
						}
					}
				}
			}
		}
		addDecls(pkg.Files, false)
		addDecls(pkg.TestFiles, true)
	}
	sort.SliceStable(g.Nodes, func(i, j int) bool {
		a, b := g.Nodes[i], g.Nodes[j]
		if a.Pkg.Path != b.Pkg.Path {
			return a.Pkg.Path < b.Pkg.Path
		}
		return a.Decl.Pos() < b.Decl.Pos()
	})
	// Pass 2: edges.
	for _, node := range g.Nodes {
		g.resolveCallees(node)
	}
	return g
}

// funcDisplayName renders "pkg.Func" or "pkg.Recv.Method".
func funcDisplayName(pkg *Package, fd *ast.FuncDecl) string {
	name := lastSegment(pkg.Path) + "."
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		name += recvTypeName(fd.Recv.List[0].Type) + "."
	}
	return name + fd.Name.Name
}

// recvTypeName extracts the receiver's base type name.
func recvTypeName(expr ast.Expr) string {
	switch t := expr.(type) {
	case *ast.StarExpr:
		return recvTypeName(t.X)
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr: // generic receiver
		return recvTypeName(t.X)
	case *ast.IndexListExpr:
		return recvTypeName(t.X)
	}
	return "?"
}

// resolveCallees walks node's body and records every statically
// resolvable intra-module call target.
func (g *CallGraph) resolveCallees(node *FuncNode) {
	imports := importTable(node.File)
	seen := make(map[*FuncNode]bool)
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, target := range g.resolveCall(node.Pkg, imports, call) {
			if target != node && !seen[target] {
				seen[target] = true
				node.Callees = append(node.Callees, target)
			}
		}
		return true
	})
}

// resolveCall returns the module function(s) a single call expression
// can statically dispatch to, as seen from pkg with the given file
// import table. Non-module calls (standard library, function values)
// resolve to nil. Interface-method calls resolve conservatively to
// every module implementation.
func (g *CallGraph) resolveCall(pkg *Package, imports map[string]string, call *ast.CallExpr) []*FuncNode {
	info := pkg.Info
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		// Local (same-package) function call.
		if info != nil {
			if target, ok := g.byObj[info.Uses[fun]]; ok {
				return []*FuncNode{target}
			}
		}
	case *ast.SelectorExpr:
		// pkg.Func across module packages.
		if id, ok := fun.X.(*ast.Ident); ok {
			if path, imported := imports[id.Name]; imported {
				if dep := g.mod.byPath[path]; dep != nil && dep.Types != nil {
					if obj := dep.Types.Scope().Lookup(fun.Sel.Name); obj != nil {
						if target, ok := g.byObj[obj]; ok {
							return []*FuncNode{target}
						}
					}
					return nil
				}
			}
		}
		// Method call on a module type (or module interface).
		if info == nil {
			return nil
		}
		selInfo, ok := info.Selections[fun]
		if !ok {
			return nil
		}
		obj, ok := selInfo.Obj().(*types.Func)
		if !ok {
			return nil
		}
		if target, ok := g.byObj[obj]; ok {
			return []*FuncNode{target}
		}
		// Interface method: link conservatively to every module
		// implementation of the interface.
		if iface, ok := selInfo.Recv().Underlying().(*types.Interface); ok {
			return g.implementations(iface, fun.Sel.Name)
		}
	}
	return nil
}

// implementations finds the method named name on every module type
// that implements iface.
func (g *CallGraph) implementations(iface *types.Interface, name string) []*FuncNode {
	var out []*FuncNode
	for _, pkg := range g.mod.Pkgs {
		if pkg.Types == nil {
			continue
		}
		scope := pkg.Types.Scope()
		for _, tname := range scope.Names() {
			tn, ok := scope.Lookup(tname).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			ptr := types.NewPointer(named)
			if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				meth := named.Method(i)
				if meth.Name() != name {
					continue
				}
				if target, ok := g.byObj[meth]; ok {
					out = append(out, target)
				}
			}
		}
	}
	return out
}

// ReachableFrom runs a deterministic BFS from the given roots and
// returns, for every reached node, its BFS predecessor (roots map to
// nil), so analyzers can reconstruct a shortest call path.
func (g *CallGraph) ReachableFrom(roots []*FuncNode) map[*FuncNode]*FuncNode {
	pred := make(map[*FuncNode]*FuncNode, len(roots))
	queue := make([]*FuncNode, 0, len(roots))
	for _, r := range roots {
		if _, ok := pred[r]; !ok {
			pred[r] = nil
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, callee := range cur.Callees {
			if _, ok := pred[callee]; !ok {
				pred[callee] = cur
				queue = append(queue, callee)
			}
		}
	}
	return pred
}

// PathTo reconstructs the root → ... → node call chain from a
// ReachableFrom predecessor map, rendered as display names.
func PathTo(pred map[*FuncNode]*FuncNode, node *FuncNode) []string {
	var rev []string
	for cur := node; cur != nil; cur = pred[cur] {
		rev = append(rev, cur.Name)
		if pred[cur] == nil {
			break
		}
	}
	out := make([]string, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, rev[i])
	}
	return out
}

// exprString renders a (small) expression for diagnostics and lock
// keys; it is stable because it prints straight from the AST.
func exprString(expr ast.Expr) string {
	var buf bytes.Buffer
	_ = printer.Fprint(&buf, token.NewFileSet(), expr)
	return buf.String()
}
