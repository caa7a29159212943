// Package experiments mirrors the repo's table writers. Their rendered
// output is digested, so determinism-taint, rng-discipline, map-order
// and panic-hygiene check every function here directly, whether or not
// a Run*/Fig*/Table*/Appendix* entry point calls it.
package experiments

import (
	"fmt"
	"strings"
	"time"
)

// Table mirrors the repository's rendered result table.
type Table struct {
	Title string
	Rows  []string
}

// String stamps the wall clock into the rendered text. No table entry
// point calls it (callers reach it through fmt), so reachability from
// those entry points cannot see this read; the direct check does.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s)\n", t.Title, time.Now().Format(time.RFC3339))
	for _, row := range t.Rows {
		b.WriteString(row + "\n")
	}
	return b.String()
}

// RunTable1 seeds its table from the wall clock.
func RunTable1() {
	fmt.Println("table", time.Now().UnixNano())
}

// RunTable2 leaks randomized map iteration order straight into the
// emitted table.
func RunTable2(rows map[string]float64) {
	for name, v := range rows {
		fmt.Printf("%s %v\n", name, v)
	}
}

// RunTable3 is the compliant shape: sorted keys, fixed seed.
func RunTable3(rows map[string]float64, keys []string) {
	for _, k := range keys {
		fmt.Printf("%s %v\n", k, rows[k])
	}
}
