package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// AnalyzerLockDiscipline enforces two rules on the concurrent service
// layers (internal/fleetd, internal/obs):
//
//  1. A mutex acquired in a function is released on every return path —
//     either by a defer or by a provable straight-line unlock. A return
//     reached with a lock still held (and no deferred unlock) is a
//     leak: the next Lock deadlocks the daemon.
//
//  2. A held lock must not be held across a blocking operation: channel
//     send/receive, select without a default, range over a channel,
//     time.Sleep / clock Sleep, net/http round trips, WaitGroup/Cond
//     Wait, a runner or client Do, and file fsync (Sync/SyncDir).
//     Blocking propagates through the module call graph: calling a
//     module function that transitively blocks counts as blocking.
//
// The tracker is a linear abstract interpretation per function:
// branches fork the held-lock state and merge by intersection
// (conservative — a lock released on only one arm is not reported),
// terminating branches do not merge back, loop and select-clause bodies
// are analyzed against a copy of the entry state, and function literals
// are analyzed as independent functions. select with a default case is
// non-blocking by construction, so a lock may be held across a
// try-send.
var AnalyzerLockDiscipline = &Analyzer{
	Name:      "lock-discipline",
	Doc:       "mutexes in fleetd/obs must unlock on all paths and never be held across blocking operations; blind to a blocking callee reached through a method call on a standard-library-typed value (e.g. v.Load().m())",
	RunModule: runLockDiscipline,
}

// lockScopeSegments are the import-path segments that opt a package
// into lock-discipline checking.
var lockScopeSegments = map[string]bool{"fleetd": true, "obs": true}

func isLockScoped(path string) bool {
	for _, seg := range strings.Split(path, "/") {
		if lockScopeSegments[seg] {
			return true
		}
	}
	return false
}

// blockingWaitMethods are method names that block the calling
// goroutine regardless of receiver: fsync, waits and sleeps.
var blockingWaitMethods = map[string]string{
	"Sync":    "file fsync",
	"SyncDir": "directory fsync",
	"Wait":    "wait",
	"Sleep":   "sleep",
}

// httpCallFuncs are the net/http package-level round-trip entry points.
var httpCallFuncs = map[string]bool{
	"Get": true, "Post": true, "PostForm": true, "Head": true, "Do": true,
}

func runLockDiscipline(p *Pass) {
	g := p.Mod.CallGraph()
	blocking := blockingModuleFuncs(g)
	for _, node := range g.Nodes {
		if node.InTest || !isLockScoped(node.Pkg.Path) {
			continue
		}
		lt := &lockTracker{
			pass:     p,
			graph:    g,
			blocking: blocking,
			pkg:      node.Pkg,
			imports:  importTable(node.File),
		}
		lt.checkFunc(node.Decl.Body)
	}
}

// blockingModuleFuncs computes the transitive set of module functions
// whose bodies reach a blocking primitive, by fixed point over the
// call graph.
func blockingModuleFuncs(g *CallGraph) map[*FuncNode]bool {
	blocking := make(map[*FuncNode]bool)
	for _, node := range g.Nodes {
		imports := importTable(node.File)
		if bodyHasBlockingPrimitive(node, imports) {
			blocking[node] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, node := range g.Nodes {
			if blocking[node] {
				continue
			}
			for _, callee := range node.Callees {
				if blocking[callee] {
					blocking[node] = true
					changed = true
					break
				}
			}
		}
	}
	return blocking
}

// bodyHasBlockingPrimitive reports whether node's body directly
// contains a blocking primitive (outside nested function literals and
// go statements, which run on other goroutines).
func bodyHasBlockingPrimitive(node *FuncNode, imports map[string]string) bool {
	found := false
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false // runs later or elsewhere
		case *ast.SendStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				found = true
			}
			// Clause bodies run after the select unblocks; the select
			// itself is the primitive, so stop descending.
			return false
		case *ast.RangeStmt:
			if node.Pkg.Info != nil && isChannelType(node, n.X) {
				found = true
			}
		case *ast.CallExpr:
			if why, _ := classifyBlockingCall(n, imports); why != "" {
				found = true
			}
		}
		return !found
	})
	return found
}

// classifyBlockingCall reports why a call expression blocks ("" when it
// does not), based on the primitive tables (std behavior is not in the
// call graph).
func classifyBlockingCall(call *ast.CallExpr, imports map[string]string) (why, what string) {
	if id, name, ok := qualified(call.Fun, imports); ok {
		path := imports[id]
		if path == "time" && name == "Sleep" {
			return "sleep", id + "." + name
		}
		if path == "net/http" && httpCallFuncs[name] {
			return "HTTP round trip", id + "." + name
		}
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	name := sel.Sel.Name
	if why, ok := blockingWaitMethods[name]; ok {
		return why, exprString(call.Fun)
	}
	if name == "Do" {
		// A runner's Do (a retry loop) and http.Client.Do round trips
		// block for seconds; sync.Once.Do and friends do not carry
		// these names.
		recv := strings.ToLower(exprString(sel.X))
		if strings.Contains(recv, "runner") || strings.Contains(recv, "client") {
			return "retry/HTTP round trip", exprString(call.Fun)
		}
	}
	return "", ""
}

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// isChannelType reports whether expr types as a channel in node's
// package (false when type info is unavailable).
func isChannelType(node *FuncNode, expr ast.Expr) bool {
	t := node.Pkg.Info.TypeOf(expr)
	if t == nil {
		return false
	}
	_, isChan := t.Underlying().(*types.Chan)
	return isChan
}

// lockState is the abstract state at one program point: which lock
// expressions are held, and which of those a defer will release.
type lockState struct {
	held     map[string]token.Pos // lock key -> acquisition position
	deferred map[string]bool      // keys with a pending deferred unlock
}

func newLockState() *lockState {
	return &lockState{held: make(map[string]token.Pos), deferred: make(map[string]bool)}
}

func (s *lockState) clone() *lockState {
	c := newLockState()
	for k, v := range s.held {
		c.held[k] = v
	}
	for k := range s.deferred {
		c.deferred[k] = true
	}
	return c
}

// intersect keeps only locks held in both states (conservative merge).
func (s *lockState) intersect(o *lockState) {
	for k := range s.held {
		if _, ok := o.held[k]; !ok {
			delete(s.held, k)
			delete(s.deferred, k)
		}
	}
}

// heldKeys returns the held lock keys in sorted order for deterministic
// diagnostics.
func (s *lockState) heldKeys() []string {
	keys := make([]string, 0, len(s.held))
	for k := range s.held {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// lockTracker runs the per-function abstract interpretation.
type lockTracker struct {
	pass     *Pass
	graph    *CallGraph
	blocking map[*FuncNode]bool
	pkg      *Package
	imports  map[string]string
}

// checkFunc analyzes one function (or function literal) body with a
// fresh lock state, then recursively analyzes every nested literal the
// same way.
func (lt *lockTracker) checkFunc(body *ast.BlockStmt) {
	if body == nil {
		return
	}
	st := newLockState()
	terminated := lt.stmts(body.List, st)
	if !terminated {
		lt.reportLeaks(st, body.End())
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			lt.checkFunc(lit.Body)
			return false
		}
		return true
	})
}

// stmts interprets a statement list, mutating st. It returns true when
// the list definitely terminates the enclosing function (every path
// returns or panics), in which case leaks were already reported.
func (lt *lockTracker) stmts(list []ast.Stmt, st *lockState) bool {
	for _, stmt := range list {
		if lt.stmt(stmt, st) {
			return true
		}
	}
	return false
}

func (lt *lockTracker) stmt(stmt ast.Stmt, st *lockState) bool {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if lt.lockOp(call, st) {
				return false
			}
			if isPanicCall(call) {
				return true // panic unwinds; deferred unlocks run
			}
		}
		lt.checkExpr(s.X, st)
	case *ast.DeferStmt:
		lt.recordDeferredUnlocks(s.Call, st)
	case *ast.ReturnStmt:
		for _, res := range s.Results {
			lt.checkExpr(res, st)
		}
		lt.reportLeaks(st, s.Pos())
		return true
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			lt.checkExpr(rhs, st)
		}
	case *ast.SendStmt:
		lt.reportBlocked(st, s.Pos(), "channel send")
		lt.checkExpr(s.Value, st)
	case *ast.IfStmt:
		if s.Init != nil {
			lt.stmt(s.Init, st)
		}
		lt.checkExpr(s.Cond, st)
		bodySt := st.clone()
		bodyTerm := lt.stmts(s.Body.List, bodySt)
		elseSt := st.clone()
		elseTerm := false
		if s.Else != nil {
			elseTerm = lt.stmt(s.Else, elseSt)
		}
		switch {
		case bodyTerm && elseTerm:
			return true
		case bodyTerm:
			*st = *elseSt
		case elseTerm:
			*st = *bodySt
		default:
			bodySt.intersect(elseSt)
			*st = *bodySt
		}
	case *ast.BlockStmt:
		return lt.stmts(s.List, st)
	case *ast.LabeledStmt:
		return lt.stmt(s.Stmt, st)
	case *ast.ForStmt:
		if s.Init != nil {
			lt.stmt(s.Init, st)
		}
		if s.Cond != nil {
			lt.checkExpr(s.Cond, st)
		}
		// One symbolic iteration against a copy: lock changes inside the
		// body do not escape the loop (conservative).
		bodySt := st.clone()
		lt.stmts(s.Body.List, bodySt)
	case *ast.RangeStmt:
		if lt.pkg.Info != nil {
			if t := lt.pkg.Info.TypeOf(s.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					lt.reportBlocked(st, s.Pos(), "range over channel")
				}
			}
		}
		bodySt := st.clone()
		lt.stmts(s.Body.List, bodySt)
	case *ast.SelectStmt:
		if !selectHasDefault(s) {
			lt.reportBlocked(st, s.Pos(), "select without default")
		}
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok {
				clauseSt := st.clone()
				lt.stmts(cc.Body, clauseSt)
			}
		}
	case *ast.SwitchStmt:
		if s.Init != nil {
			lt.stmt(s.Init, st)
		}
		if s.Tag != nil {
			lt.checkExpr(s.Tag, st)
		}
		lt.switchClauses(s.Body, st)
	case *ast.TypeSwitchStmt:
		lt.switchClauses(s.Body, st)
	case *ast.GoStmt:
		// The spawned goroutine runs concurrently; its body is analyzed
		// as an independent function by checkFunc's literal sweep.
	}
	return false
}

// switchClauses analyzes each case body against a copy of the entry
// state and merges the non-terminating ones by intersection.
func (lt *lockTracker) switchClauses(body *ast.BlockStmt, st *lockState) {
	var merged *lockState
	for _, clause := range body.List {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		clauseSt := st.clone()
		if lt.stmts(cc.Body, clauseSt) {
			continue
		}
		if merged == nil {
			merged = clauseSt
		} else {
			merged.intersect(clauseSt)
		}
	}
	if merged != nil {
		merged.intersect(st) // a missing default means fall-through with entry state
		*st = *merged
	}
}

// lockOp handles X.Lock/RLock/Unlock/RUnlock statements; returns true
// when the call was a lock operation.
func (lt *lockTracker) lockOp(call *ast.CallExpr, st *lockState) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	key := exprString(sel.X)
	switch sel.Sel.Name {
	case "Lock", "RLock":
		// Skip pkg-qualified look-alikes (no real ones in the module).
		if _, isPkg := lt.imports[key]; isPkg {
			return false
		}
		st.held[key] = call.Pos()
		return true
	case "Unlock", "RUnlock":
		delete(st.held, key)
		delete(st.deferred, key)
		return true
	}
	return false
}

// recordDeferredUnlocks marks locks released by `defer X.Unlock()` or by
// unlock calls inside a deferred function literal.
func (lt *lockTracker) recordDeferredUnlocks(call *ast.CallExpr, st *lockState) {
	mark := func(c *ast.CallExpr) {
		if sel, ok := c.Fun.(*ast.SelectorExpr); ok {
			if sel.Sel.Name == "Unlock" || sel.Sel.Name == "RUnlock" {
				st.deferred[exprString(sel.X)] = true
			}
		}
	}
	mark(call)
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				mark(c)
			}
			return true
		})
	}
}

// checkExpr scans an expression for blocking operations (receives and
// blocking calls) evaluated at this program point. Function literals
// are skipped: they execute later.
func (lt *lockTracker) checkExpr(expr ast.Expr, st *lockState) {
	if expr == nil || len(st.held) == 0 {
		return
	}
	ast.Inspect(expr, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				lt.reportBlocked(st, n.Pos(), "channel receive")
			}
		case *ast.CallExpr:
			lt.checkCallBlocking(n, st)
		}
		return true
	})
}

// checkCallBlocking reports a call that blocks (primitive table or
// transitively-blocking module function) while locks are held.
func (lt *lockTracker) checkCallBlocking(call *ast.CallExpr, st *lockState) {
	if why, what := classifyBlockingCall(call, lt.imports); why != "" {
		lt.reportBlocked(st, call.Pos(), what+" ("+why+")")
		return
	}
	for _, target := range lt.graph.resolveCall(lt.pkg, lt.imports, call) {
		if lt.blocking[target] {
			lt.reportBlocked(st, call.Pos(), "call to "+target.Name+", which blocks")
			return
		}
	}
}

func (lt *lockTracker) reportBlocked(st *lockState, pos token.Pos, what string) {
	for _, key := range st.heldKeys() {
		lt.pass.Reportf(pos, "%s held across blocking operation: %s; release the lock first (blocking while locked stalls every other caller)", key, what)
	}
}

// reportLeaks flags locks still held (with no deferred unlock) at a
// return point or at the end of the function body.
func (lt *lockTracker) reportLeaks(st *lockState, pos token.Pos) {
	for _, key := range st.heldKeys() {
		if st.deferred[key] {
			continue
		}
		lt.pass.Reportf(pos, "%s is still held on this return path; unlock before returning or use defer %s.Unlock()", key, key)
	}
}

// isPanicCall reports whether call is the builtin panic.
func isPanicCall(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}
