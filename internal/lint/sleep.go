package lint

import (
	"go/ast"
	"strings"
)

// bareWaitFuncs are the time-package waits that cannot be cancelled or
// faked: Sleep blocks the goroutine unconditionally, and After/Tick
// leak their timer when the select takes another branch. In service
// code every wait must use time.NewTicker/time.NewTimer in a select
// with ctx.Done(), whose Stop makes shutdown deterministic.
var bareWaitFuncs = map[string]string{
	"Sleep": "blocks the goroutine with no cancellation and no clock seam",
	"After": "leaks its timer when the select takes another branch",
	"Tick":  "leaks its ticker forever",
}

// AnalyzerSleepDiscipline bans bare time.Sleep/time.After/time.Tick in
// the fleetd service layer (daemon, API client, and their CLIs).
// time.NewTicker and time.NewTimer stay allowed — they are stoppable,
// and a select on ctx.Done() beside them honors cancellation, as the
// api client's retry wait does. Test files are exempt: polling loops
// in tests are fine.
var AnalyzerSleepDiscipline = &Analyzer{
	Name: "sleep-discipline",
	Doc:  "forbid bare time.Sleep/time.After/time.Tick in fleetd service code; wait on a stoppable timer or ticker beside ctx.Done()",
	Run:  runSleepDiscipline,
}

// isFleetdPath reports whether the import path belongs to the fleetd
// service layer: the daemon package tree plus its command wrappers.
func isFleetdPath(path string) bool {
	for _, seg := range strings.Split(path, "/") {
		if seg == "fleetd" || seg == "arachnet-fleetd" || seg == "arachnet-fleet" {
			return true
		}
	}
	return false
}

func runSleepDiscipline(p *Pass) {
	if !isFleetdPath(p.Pkg.Path) {
		return
	}
	for _, f := range p.Pkg.Files { // production files only; tests may poll
		imports := importTable(f)
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, name, ok := qualified(sel, imports)
			if !ok || imports[id] != "time" {
				return true
			}
			if why, bad := bareWaitFuncs[name]; bad {
				p.Reportf(sel.Pos(), "%s.%s %s; wait on a stopped time.NewTimer/NewTicker in a select with ctx.Done()",
					id, name, why)
			}
			return true
		})
	}
}
