// Command arachnet-lint runs the repository's domain analyzers
// (determinism-taint, rng-discipline, map-order, units, panic-hygiene,
// sleep-discipline, goroutine-hygiene, alloc-discipline) over the
// module and prints one
// "file:line:col: [check] message" line per finding. It exits 0 on a
// clean tree, 1 when there are findings, and 2 on a loading failure.
//
// Usage:
//
//	go run ./cmd/arachnet-lint ./...
//	go run ./cmd/arachnet-lint -json ./...
//	go run ./cmd/arachnet-lint -alloc-gate
//
// The package pattern is accepted for familiarity but the whole module
// is always analyzed: packages are type-checked against each other, and
// the //lint:allow audit (a stale directive is a finding) covers every
// file. Findings are suppressed in line with
//
//	//lint:allow <check> <reason>
//
// on the offending line or the line above it; see README.md
// ("Static analysis") and DESIGN.md §10.
//
// Under GitHub Actions (GITHUB_ACTIONS=true) findings are additionally
// emitted as ::error workflow commands so they surface as inline PR
// annotations.
//
// The -alloc-* flags drive the static zero-alloc gate: -alloc-gate
// compiles the packages of the //alloc:hot functions with -gcflags=-m
// and diffs their escapes against scripts/escape-baseline.txt (new
// escapes and stale baseline entries both fail), -alloc-update
// rewrites the baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

// baselinePath is the checked-in escape baseline, relative to the
// module root.
const baselinePath = "scripts/escape-baseline.txt"

func main() {
	root := flag.String("root", "", "module root (default: walk up from cwd to go.mod)")
	list := flag.Bool("list", false, "list the registered analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array instead of text")
	allocGate := flag.Bool("alloc-gate", false, "run the escape-analysis gate against "+baselinePath)
	allocUpdate := flag.Bool("alloc-update", false, "rewrite "+baselinePath+" from the current escape analysis")
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-18s %s\n", a.Name, a.Doc)
		}
		return
	}

	dir := *root
	if dir == "" {
		var err error
		dir, err = findModuleRoot()
		if err != nil {
			fail(err)
		}
	}

	if *allocGate || *allocUpdate {
		runAllocGate(dir, *allocUpdate)
		return
	}
	runSuite(dir, *jsonOut)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "arachnet-lint:", err)
	os.Exit(2)
}

// runSuite is the default mode: the full analyzer suite over the module.
func runSuite(dir string, jsonOut bool) {
	diags, err := lint.Run(dir)
	if err != nil {
		fail(err)
	}
	github := os.Getenv("GITHUB_ACTIONS") == "true"
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fail(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if github {
		for _, d := range diags {
			// ::error workflow command — GitHub renders these as inline
			// annotations on the PR diff.
			fmt.Printf("::error file=%s,line=%d,col=%d,title=arachnet-lint %s::%s\n",
				d.File, d.Line, d.Col, d.Check, escapeWorkflowData(d.Message))
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "arachnet-lint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// escapeWorkflowData applies the GitHub workflow-command data escaping
// rules (%, CR, LF).
func escapeWorkflowData(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// runAllocGate drives the static zero-alloc gate.
func runAllocGate(dir string, update bool) {
	mod, err := lint.LoadModule(dir)
	if err != nil {
		fail(err)
	}
	manifest := lint.AllocManifest(mod)
	entries, err := lint.RunEscapeGate(dir, manifest)
	if err != nil {
		fail(err)
	}
	basePath := filepath.Join(dir, filepath.FromSlash(baselinePath))
	if update {
		var b strings.Builder
		b.WriteString("# Escape-analysis baseline for //alloc:hot functions.\n")
		b.WriteString("# One \"file:Func: message\" per accepted heap escape; regenerate\n")
		b.WriteString("# with `go run ./cmd/arachnet-lint -alloc-update` and review the diff.\n")
		for _, e := range entries {
			b.WriteString(e)
			b.WriteByte('\n')
		}
		if err := os.WriteFile(basePath, []byte(b.String()), 0o644); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "arachnet-lint: wrote %s (%d entr%s)\n", baselinePath, len(entries), plural(len(entries), "y", "ies"))
		return
	}
	baseData, err := os.ReadFile(basePath)
	if err != nil {
		fail(fmt.Errorf("%w (run with -alloc-update to create the baseline)", err))
	}
	added, removed := lint.DiffEscapeBaseline(entries, lint.ParseBaseline(string(baseData)))
	github := os.Getenv("GITHUB_ACTIONS") == "true"
	// A stale line fails too: it would pre-approve the same escape if
	// the code came back.
	var msgs []string
	for _, e := range removed {
		msgs = append(msgs, "stale baseline entry (escape no longer present): "+e)
	}
	for _, e := range added {
		msgs = append(msgs, "new heap escape in //alloc:hot function: "+e)
	}
	for _, m := range msgs {
		fmt.Println(m)
		if github {
			fmt.Printf("::error title=arachnet-lint alloc-gate::%s\n", escapeWorkflowData(m))
		}
	}
	if len(msgs) > 0 {
		fmt.Fprintf(os.Stderr, "arachnet-lint: alloc gate FAILED: %d new escape(s), %d stale baseline entr%s; fix new escapes, then review and run -alloc-update\n",
			len(added), len(removed), plural(len(removed), "y", "ies"))
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "arachnet-lint: alloc gate ok (%d baseline escape(s), %d //alloc:hot function(s))\n", len(entries), len(manifest))
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
