// Command arachnet-benchjson runs `go test -bench` over the given
// packages, echoes its output, parses every result line (ns/op, B/op,
// allocs/op and each b.ReportMetric custom metric) and checks the
// repeatable -assert bounds against them; a violated bound, a failed
// run or a run that matched no benchmark exits non-zero. It is the
// engine of `make bench-smoke`:
//
//	arachnet-benchjson -bench FleetThroughput -benchtime 2x \
//	    -assert 'BenchmarkFleetThroughput/workers=8:speedup-vs-serial>=0.8' .
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// Entry is one benchmark result.
type Entry struct {
	NsPerOp    float64
	BytesPerOp float64
	AllocsOp   float64
	// Metrics holds the benchmark's b.ReportMetric values, e.g.
	// "speedup-vs-serial" or "allocs/job".
	Metrics map[string]float64
}

func main() {
	bench := flag.String("bench", ".", "benchmark name pattern (go test -bench)")
	benchtime := flag.String("benchtime", "1x", "go test -benchtime value")
	var asserts assertList
	flag.Var(&asserts, "assert",
		"bound on a benchmark result, 'name:metric>=value' or 'name:metric<=value'\n"+
			"(metric is a b.ReportMetric unit, or ns_per_op / bytes_per_op / allocs_per_op;\n"+
			"name is the benchmark name without its -GOMAXPROCS suffix; repeatable)")
	flag.Parse()
	pkgs := flag.Args()
	if len(pkgs) == 0 {
		pkgs = []string{"./..."}
	}

	args := append([]string{"test", "-run", "^$", "-bench", *bench,
		"-benchtime", *benchtime, "-benchmem"}, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		fatal(err)
	}
	if err := cmd.Start(); err != nil {
		fatal(err)
	}
	entries := map[string]Entry{}
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		if name, e, ok := parseBenchLine(line); ok {
			entries[name] = e
		}
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		fatal(fmt.Errorf("go test: %w", err))
	}
	if len(entries) == 0 {
		fatal(fmt.Errorf("no benchmark results matched -bench %q", *bench))
	}
	for _, a := range asserts {
		if err := a.check(entries); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "assert ok: %s\n", a)
	}
}

// assertion is one '-assert name:metric>=value' bound checked against
// the parsed results after the run — the CI bench-smoke hook.
type assertion struct {
	name   string // benchmark name without the -GOMAXPROCS suffix
	metric string
	ge     bool // >= when true, <= otherwise
	bound  float64
}

func (a assertion) String() string {
	op := ">="
	if !a.ge {
		op = "<="
	}
	return fmt.Sprintf("%s:%s%s%g", a.name, a.metric, op, a.bound)
}

// parseAssertion decodes 'name:metric>=value' / 'name:metric<=value'.
func parseAssertion(s string) (assertion, error) {
	var a assertion
	op := ">="
	a.ge = true
	i := strings.Index(s, op)
	if i < 0 {
		op = "<="
		a.ge = false
		i = strings.Index(s, op)
	}
	if i < 0 {
		return a, fmt.Errorf("assert %q: want name:metric>=value or name:metric<=value", s)
	}
	bound, err := strconv.ParseFloat(strings.TrimSpace(s[i+len(op):]), 64)
	if err != nil {
		return a, fmt.Errorf("assert %q: bad bound: %w", s, err)
	}
	a.bound = bound
	head := s[:i]
	j := strings.LastIndex(head, ":")
	if j < 0 {
		return a, fmt.Errorf("assert %q: missing ':' between name and metric", s)
	}
	a.name, a.metric = strings.TrimSpace(head[:j]), strings.TrimSpace(head[j+1:])
	if a.name == "" || a.metric == "" {
		return a, fmt.Errorf("assert %q: empty name or metric", s)
	}
	return a, nil
}

// check evaluates the assertion against the run's results.
func (a assertion) check(entries map[string]Entry) error {
	e, ok := entries[a.name]
	if !ok {
		return fmt.Errorf("assert %s: no result for %q", a, a.name)
	}
	var v float64
	switch a.metric {
	case "ns_per_op":
		v = e.NsPerOp
	case "bytes_per_op":
		v = e.BytesPerOp
	case "allocs_per_op":
		v = e.AllocsOp
	default:
		v, ok = e.Metrics[a.metric]
		if !ok {
			return fmt.Errorf("assert %s: result %q has no metric %q", a, a.name, a.metric)
		}
	}
	if a.ge && v < a.bound {
		return fmt.Errorf("assert FAILED: %s/%s = %g, want >= %g", a.name, a.metric, v, a.bound)
	}
	if !a.ge && v > a.bound {
		return fmt.Errorf("assert FAILED: %s/%s = %g, want <= %g", a.name, a.metric, v, a.bound)
	}
	return nil
}

// assertList is the repeatable -assert flag value.
type assertList []assertion

func (l *assertList) String() string {
	parts := make([]string, len(*l))
	for i, a := range *l {
		parts[i] = a.String()
	}
	return strings.Join(parts, ",")
}

func (l *assertList) Set(s string) error {
	a, err := parseAssertion(s)
	if err != nil {
		return err
	}
	*l = append(*l, a)
	return nil
}

// parseBenchLine decodes one `go test -bench` result line, e.g.
//
//	BenchmarkFoo/bar-8  3  1234 ns/op  5 B/op  2 allocs/op  11.7 tag8-dB
//
// Lines that are not benchmark results return ok=false.
func parseBenchLine(line string) (string, Entry, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", Entry{}, false
	}
	name := fields[0]
	// Strip the -GOMAXPROCS suffix for stable keys across machines.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	if _, err := strconv.Atoi(fields[1]); err != nil {
		return "", Entry{}, false
	}
	var e Entry
	// Remaining fields come in (value, unit) pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", Entry{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			e.NsPerOp = v
		case "B/op":
			e.BytesPerOp = v
		case "allocs/op":
			e.AllocsOp = v
		default:
			if e.Metrics == nil {
				e.Metrics = map[string]float64{}
			}
			e.Metrics[unit] = v
		}
	}
	return name, e, true
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
