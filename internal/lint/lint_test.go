package lint

import (
	"flag"
	"fmt"
	"go/ast"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// fixtureChecks lists every check: each registered analyzer plus the
// directive audit. The fixture module must give each at least one
// finding (a true positive) that matches its golden file.
func fixtureChecks() []string {
	checks := []string{DirectiveCheck}
	for _, a := range Analyzers() {
		checks = append(checks, a.Name)
	}
	return checks
}

// fixtureModule loads the fixture module (cheap: a few files).
func fixtureModule(t *testing.T) *Module {
	t.Helper()
	mod, err := LoadModule(filepath.Join("testdata", "src", "fixture"))
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// loadFixture runs the full analyzer suite over the fixture module.
func loadFixture(t *testing.T) []Diagnostic {
	t.Helper()
	diags, err := Run(filepath.Join("testdata", "src", "fixture"))
	if err != nil {
		t.Fatalf("Run(fixture): %v", err)
	}
	return diags
}

// TestFixtureGolden pins the complete diagnostic output per check
// against golden files, and fails on a golden file no check owns (a
// deleted analyzer must take its golden with it). Regenerate with
// `go test -run Golden -update`.
func TestFixtureGolden(t *testing.T) {
	checks := fixtureChecks()
	owned := make(map[string]bool, len(checks))
	for _, check := range checks {
		owned[check+".golden"] = true
	}
	goldens, err := filepath.Glob(filepath.Join("testdata", "golden", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range goldens {
		if !owned[filepath.Base(path)] {
			t.Errorf("orphan golden %s: no registered check owns it; delete it", path)
		}
	}
	byCheck := make(map[string][]string)
	for _, d := range loadFixture(t) {
		byCheck[d.Check] = append(byCheck[d.Check], d.String())
	}
	for _, check := range checks {
		t.Run(check, func(t *testing.T) {
			got := strings.Join(byCheck[check], "\n") + "\n"
			path := filepath.Join("testdata", "golden", check+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics differ from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
			if len(byCheck[check]) == 0 {
				t.Errorf("check %s produced no findings: the fixture must contain a true positive", check)
			}
		})
	}
}

// TestFixtureNegatives spot-checks that the compliant fixture
// declarations stay quiet: a finding pointing at any of these lines
// means a false positive crept in.
func TestFixtureNegatives(t *testing.T) {
	clean := map[string]bool{
		"faults/order.go:24":       true, // append followed by sort.Strings
		"faults/order.go:50":       true, // per-key bucket append
		"faults/order.go:59":       true, // order-independent sum
		"mac/mac.go:41":            true, // sim.NewRand(seed)
		"mac/mac.go:54":            true, // panic inside must* helper
		"biw/units.go:38":          true, // dB + dB arithmetic
		"httpd/httpd.go:20":        true, // http.HandlerFunc conversion, not a registration
		"httpd/httpd.go:32":        true, // handler passed through wrap()
		"experiments/tables.go:46": true, // sorted-keys iteration
		"obs/spawn.go:35":          true, // goroutine joined via defer wg.Done
		"obs/spawn.go:43":          true, // goroutine tied to ctx.Done
		"obs/spawn.go:56":          true, // goroutine drains a closable channel
		"dsp/hot.go:8":             true, // well-formed //alloc:hot with a note
	}
	for _, d := range loadFixture(t) {
		if clean[fmt.Sprintf("%s:%d", d.File, d.Line)] {
			t.Errorf("false positive on compliant line: %s", d)
		}
	}
}

func TestParseDirective(t *testing.T) {
	known := map[string]bool{"determinism": true, "map-order": true}
	// "determinism" stays a *syntactically* known name in this table to
	// keep the parser cases focused; validity against the live registry
	// is covered by the fixture goldens.
	tests := []struct {
		name   string
		text   string
		ok     bool
		check  string
		reason string
		errSub string
	}{
		{name: "valid", text: "//lint:allow determinism wall-clock benchmark", ok: true, check: "determinism", reason: "wall-clock benchmark"},
		{name: "valid multiword reason", text: "//lint:allow map-order keys sorted upstream", ok: true, check: "map-order", reason: "keys sorted upstream"},
		{name: "unknown check", text: "//lint:allow nosuch some reason", ok: true, check: "nosuch", errSub: `unknown check "nosuch"`},
		{name: "missing reason", text: "//lint:allow determinism", ok: true, check: "determinism", errSub: "missing reason"},
		{name: "missing everything", text: "//lint:allow", ok: true, errSub: "missing check name and reason"},
		{name: "look-alike prefix", text: "//lint:allowed determinism reason", ok: false},
		{name: "ordinary comment", text: "// this is not a directive", ok: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d, ok := parseDirective(tt.text, known)
			if ok != tt.ok {
				t.Fatalf("ok = %v, want %v", ok, tt.ok)
			}
			if !ok {
				return
			}
			if d.Check != tt.check {
				t.Errorf("check = %q, want %q", d.Check, tt.check)
			}
			if tt.errSub == "" {
				if d.Err != "" {
					t.Errorf("unexpected error %q", d.Err)
				}
				if d.Reason != tt.reason {
					t.Errorf("reason = %q, want %q", d.Reason, tt.reason)
				}
			} else if !strings.Contains(d.Err, tt.errSub) {
				t.Errorf("error %q does not contain %q", d.Err, tt.errSub)
			}
		})
	}
}

func TestApplyDirectives(t *testing.T) {
	diag := func(file string, line int, check string) Diagnostic {
		return Diagnostic{File: file, Line: line, Col: 1, Check: check, Message: "m"}
	}
	t.Run("suppresses same line and next line", func(t *testing.T) {
		diags := []Diagnostic{diag("a.go", 10, "determinism"), diag("a.go", 11, "determinism")}
		dirs := []*Directive{{File: "a.go", Line: 10, Check: "determinism", Reason: "r"}}
		got := applyDirectives(diags, dirs)
		if len(got) != 0 {
			t.Fatalf("want all suppressed, got %v", got)
		}
	})
	t.Run("wrong check does not suppress", func(t *testing.T) {
		diags := []Diagnostic{diag("a.go", 10, "determinism")}
		dirs := []*Directive{{File: "a.go", Line: 10, Check: "map-order", Reason: "r"}}
		got := applyDirectives(diags, dirs)
		// The finding survives and the directive is reported stale.
		if len(got) != 2 {
			t.Fatalf("want finding + stale report, got %v", got)
		}
		if got[1].Check != DirectiveCheck || !strings.Contains(got[1].Message, "stale") {
			t.Errorf("want stale directive report, got %v", got[1])
		}
	})
	t.Run("stale allow is a finding", func(t *testing.T) {
		dirs := []*Directive{{File: "b.go", Line: 3, Check: "determinism", Reason: "r"}}
		got := applyDirectives(nil, dirs)
		if len(got) != 1 || got[0].Check != DirectiveCheck || !strings.Contains(got[0].Message, "stale") {
			t.Fatalf("want one stale finding, got %v", got)
		}
	})
	t.Run("malformed allow is a finding and never suppresses", func(t *testing.T) {
		diags := []Diagnostic{diag("c.go", 5, "determinism")}
		dirs := []*Directive{{File: "c.go", Line: 5, Check: "determinism", Err: "missing reason"}}
		got := applyDirectives(diags, dirs)
		if len(got) != 2 {
			t.Fatalf("want surviving finding + malformed report, got %v", got)
		}
		if got[1].Check != DirectiveCheck || !strings.Contains(got[1].Message, "malformed") {
			t.Errorf("want malformed directive report, got %v", got[1])
		}
	})
}

// TestModuleIsClean runs the analyzer suite over the real repository:
// the shipped tree must have zero findings, so `go test` enforces the
// same bar as `make lint`.
func TestModuleIsClean(t *testing.T) {
	diags, err := Run(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("Run(repo root): %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Fatalf("repository tree has %d lint finding(s); fix them or add //lint:allow with a reason", len(diags))
	}
}

// TestAnalyzerDocs keeps the registry well-formed: unique names and
// non-empty docs (the -list flag of cmd/arachnet-lint prints them).
func TestAnalyzerDocs(t *testing.T) {
	seen := make(map[string]bool)
	for _, a := range Analyzers() {
		if a.Name == "" || a.Doc == "" {
			t.Errorf("analyzer %+v incomplete", a)
		}
		if a.Run == nil {
			t.Errorf("analyzer %s has no Run", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if a.Name == DirectiveCheck {
			t.Errorf("analyzer name %q collides with the directive pseudo-check", a.Name)
		}
	}
}

// TestTaintSeesUnrootedTableMethod pins the direct check on
// experiments/: Table.String reads the wall clock, and no table entry
// point (Run*/Fig*/Table*/Appendix*) calls it, so reachability from
// those entry points misses it. determinism-taint must flag it.
func TestTaintSeesUnrootedTableMethod(t *testing.T) {
	mod := fixtureModule(t)
	var from, to int
	for _, pkg := range mod.Pkgs {
		if pkg.Path != "fixture/experiments" {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Name.Name == "String" {
					from, to = mod.Fset.Position(fd.Pos()).Line, mod.Fset.Position(fd.End()).Line
				}
			}
		}
	}
	if from == 0 {
		t.Fatal("fixture/experiments has no Table.String")
	}
	for _, d := range loadFixture(t) {
		if d.Check == "determinism-taint" && d.File == "experiments/tables.go" && d.Line >= from && d.Line <= to {
			return
		}
	}
	t.Errorf("determinism-taint has no finding in experiments/tables.go:%d-%d (Table.String reads time.Now)", from, to)
}

// TestDependencyOrder checks the loader's topological ordering:
// fixture/sim must be type-checked before mac, which imports it.
func TestDependencyOrder(t *testing.T) {
	mod := fixtureModule(t)
	order := mod.dependencyOrder()
	pos := make(map[string]int)
	for i, pkg := range order {
		pos[pkg.Path] = i
	}
	if len(pos) != len(mod.Pkgs) {
		t.Fatalf("dependency order covers %d packages, module has %d", len(pos), len(mod.Pkgs))
	}
	if pos["fixture/sim"] > pos["fixture/mac"] {
		t.Errorf("importee fixture/sim ordered after its importer fixture/mac")
	}
}
