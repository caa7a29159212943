// Package lint is a stdlib-only static-analysis framework for the
// arachnet reproduction. It enforces the domain invariants the Go
// compiler cannot see: simulation code and the experiment tables must
// be pure functions of (spec, seed), map iteration order must not leak
// into outputs, physical quantities must carry their units in their
// names, and library code must not panic outside designated helpers.
//
// The framework is deliberately small: a Module loader built on
// go/parser + go/types (tolerant of unresolved standard-library
// imports, which are stubbed), Analyzers that each check one package
// at a time, and a directive layer that lets call sites suppress a
// finding with an explicit reason:
//
//	//lint:allow <check> <reason>
//
// A directive suppresses findings of the named check on its own line or
// the line immediately below. A directive that suppresses nothing is
// itself reported (stale allows rot), as are unknown check names and
// missing reasons.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned in module-relative coordinates.
type Diagnostic struct {
	File    string // path relative to the module root
	Line    int
	Col     int
	Check   string
	Message string
}

// String renders the canonical "file:line:col: [check] message" form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Check, d.Message)
}

// Analyzer is one named invariant check. Run is invoked once per
// package; the package's types come from the whole loaded module, so
// cross-package types (sim.Rand, map fields) resolve exactly.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Mod   *Module
	Pkg   *Package
	check string
	emit  func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Mod.Fset.Position(pos)
	p.emit(Diagnostic{
		File:    p.Mod.relPath(position.Filename),
		Line:    position.Line,
		Col:     position.Column,
		Check:   p.check,
		Message: fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the registered analyzer suite in a fixed order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		AnalyzerDeterminismTaint,
		AnalyzerRNGDiscipline,
		AnalyzerMapOrder,
		AnalyzerUnits,
		AnalyzerPanicHygiene,
		AnalyzerSleepDiscipline,
		AnalyzerGoroutineHygiene,
		AnalyzerAllocDiscipline,
	}
}

// analyzerNames returns the set of valid check names (used to validate
// //lint:allow directives).
func analyzerNames() map[string]bool {
	names := make(map[string]bool)
	for _, a := range Analyzers() {
		names[a.Name] = true
	}
	return names
}

// physicsPackages carry dimensioned physical quantities (dB, volts,
// hertz, ...) and are subject to the units analyzer.
var physicsPackages = map[string]bool{
	"biw": true, "pzt": true, "energy": true, "strain": true,
}

// lastSegment returns the final segment of an import path.
func lastSegment(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// isDriverPath reports whether the import path lies in a
// presentation/driver layer (cmd/ or examples/) outside the
// deterministic simulation core; the determinism, rng-discipline,
// map-order and panic-hygiene analyzers skip those. experiments/ is not
// one: its tables are digested, so it is held to the core's rules.
func isDriverPath(path string) bool {
	return hasPathSegment(path, "cmd") || hasPathSegment(path, "examples")
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

// isPhysicsPackage reports whether the package carries dimensioned
// physical quantities.
func isPhysicsPackage(path string) bool { return physicsPackages[lastSegment(path)] }

// importTable maps the local name of each import in f to its path.
// Unnamed imports default to the path's final segment, which is correct
// for the standard library and for this module's packages.
func importTable(f *ast.File) map[string]string {
	t := make(map[string]string)
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := lastSegment(path)
		if imp.Name != nil {
			name = imp.Name.Name
			if name == "_" || name == "." {
				continue
			}
		}
		t[name] = path
	}
	return t
}

// sortDiagnostics orders findings by file, line, column, then check.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
}
