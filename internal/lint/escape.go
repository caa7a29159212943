package lint

import (
	"fmt"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// Static zero-alloc gate. The compiler's escape analysis
// (`go build -gcflags=-m`) reports every value that escapes to the
// heap; inside an //alloc:hot function such an escape is a steady-state
// allocation the AllocsPerRun tests would eventually catch — but only
// on the inputs they run. The gate makes the compiler's verdict the
// contract: escapes inside annotated functions are normalized into
// stable entries, compared against a checked-in baseline
// (scripts/escape-baseline.txt), and any NEW entry, or any baseline
// entry that no longer occurs, fails `make lint`.
//
// Entries are line-number-free ("file:Func: message") so that edits
// elsewhere in a file do not churn the baseline; the message itself
// names the escaping expression, which is what a reviewer needs.

// escapeMarkers are the -m diagnostics that mean a heap allocation.
var escapeMarkers = []string{"escapes to heap", "moved to heap"}

// ParseEscapeDiagnostics maps raw `go build -gcflags=-m` output into
// normalized gate entries: one "file:Func: message" per escape
// diagnostic that lands inside an //alloc:hot function from the
// manifest. Output lines outside annotated ranges, and non-escape
// diagnostics (inlining reports, leaking-param notes), are ignored.
// The result is sorted and deduplicated.
func ParseEscapeDiagnostics(output string, manifest []AllocHotFunc) []string {
	seen := make(map[string]bool)
	var entries []string
	for _, line := range strings.Split(output, "\n") {
		line = strings.TrimSpace(line)
		file, lineNo, msg, ok := splitDiagnostic(line)
		if !ok {
			continue
		}
		marked := false
		for _, marker := range escapeMarkers {
			if strings.Contains(msg, marker) {
				marked = true
				break
			}
		}
		if !marked {
			continue
		}
		fn := lookupHotFunc(manifest, file, lineNo)
		if fn == nil {
			continue
		}
		entry := fn.File + ":" + fn.Func + ": " + strings.TrimSuffix(msg, ":")
		if !seen[entry] {
			seen[entry] = true
			entries = append(entries, entry)
		}
	}
	sort.Strings(entries)
	return entries
}

// splitDiagnostic decomposes "file.go:line:col: message" (the col part
// is optional in older toolchains).
func splitDiagnostic(line string) (file string, lineNo int, msg string, ok bool) {
	goIdx := strings.Index(line, ".go:")
	if goIdx < 0 {
		return "", 0, "", false
	}
	file = strings.TrimPrefix(line[:goIdx+3], "./")
	rest := line[goIdx+4:]
	parts := strings.SplitN(rest, ":", 3)
	if len(parts) < 2 {
		return "", 0, "", false
	}
	lineNo, err := strconv.Atoi(parts[0])
	if err != nil {
		return "", 0, "", false
	}
	// parts[1] is either the column (followed by the message in
	// parts[2]) or already the message.
	if len(parts) == 3 {
		if _, err := strconv.Atoi(parts[1]); err == nil {
			return file, lineNo, strings.TrimSpace(parts[2]), true
		}
	}
	return file, lineNo, strings.TrimSpace(strings.Join(parts[1:], ":")), true
}

// lookupHotFunc finds the manifest entry whose line range contains
// (file, line). Compiler paths may be package-relative
// ("filter.go:131") or root-relative ("internal/dsp/filter.go:131");
// both resolve, preferring the exact match.
func lookupHotFunc(manifest []AllocHotFunc, file string, line int) *AllocHotFunc {
	var suffixHit *AllocHotFunc
	for i := range manifest {
		fn := &manifest[i]
		if line < fn.StartLine || line > fn.EndLine {
			continue
		}
		if fn.File == file {
			return fn
		}
		if strings.HasSuffix(fn.File, "/"+file) {
			suffixHit = fn
		}
	}
	return suffixHit
}

// DiffEscapeBaseline compares current gate entries against the
// checked-in baseline: added entries are new heap escapes, removed
// entries are stale baseline lines. Both fail the gate; a stale line
// would pre-approve its escape if the code came back.
func DiffEscapeBaseline(current, baseline []string) (added, removed []string) {
	cur := make(map[string]bool, len(current))
	for _, e := range current {
		cur[e] = true
	}
	base := make(map[string]bool, len(baseline))
	for _, e := range baseline {
		base[e] = true
	}
	for _, e := range current {
		if !base[e] {
			added = append(added, e)
		}
	}
	for _, e := range baseline {
		if !cur[e] {
			removed = append(removed, e)
		}
	}
	sort.Strings(added)
	sort.Strings(removed)
	return added, removed
}

// ParseBaseline reads baseline file content: one entry per line, blank
// lines and #-comments ignored.
func ParseBaseline(content string) []string {
	var out []string
	for _, line := range strings.Split(content, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out = append(out, line)
	}
	sort.Strings(out)
	return out
}

// RunEscapeGate compiles the packages containing //alloc:hot functions
// with -gcflags=-m and returns the normalized gate entries. The -a flag
// defeats the build cache: a cached package would compile nothing and
// print nothing, silently passing the gate.
func RunEscapeGate(root string, manifest []AllocHotFunc) ([]string, error) {
	if len(manifest) == 0 {
		return nil, nil
	}
	pkgSet := make(map[string]bool)
	var pkgs []string
	for _, fn := range manifest {
		if !pkgSet[fn.Pkg] {
			pkgSet[fn.Pkg] = true
			pkgs = append(pkgs, fn.Pkg)
		}
	}
	sort.Strings(pkgs)
	args := append([]string{"build", "-a", "-gcflags=-m"}, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("lint: go %s: %w\n%s", strings.Join(args, " "), err, out)
	}
	return ParseEscapeDiagnostics(string(out), manifest), nil
}
