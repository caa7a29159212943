package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	name, e, ok := parseBenchLine("BenchmarkFleetThroughput/workers=8-2   \t       2\t 123456789 ns/op\t  2.31 speedup-vs-serial\t  61.0 allocs/job\t 4096 B/op\t  12 allocs/op")
	if !ok {
		t.Fatal("result line not parsed")
	}
	want := Entry{
		NsPerOp:    123456789,
		BytesPerOp: 4096,
		AllocsOp:   12,
		Metrics:    map[string]float64{"speedup-vs-serial": 2.31, "allocs/job": 61},
	}
	if name != "BenchmarkFleetThroughput/workers=8" || !reflect.DeepEqual(e, want) {
		t.Fatalf("got %q %+v, want BenchmarkFleetThroughput/workers=8 %+v", name, e, want)
	}
	// Without a -GOMAXPROCS suffix a hyphenated name is kept whole.
	if name, _, ok := parseBenchLine("BenchmarkExperiment/fig15-net  1  588234668 ns/op"); !ok || name != "BenchmarkExperiment/fig15-net" {
		t.Fatalf("got %q %v", name, ok)
	}
	for _, line := range []string{
		"goos: linux",
		"BenchmarkExperiment",
		"--- BENCH: BenchmarkExperiment/table1-2",
		"BenchmarkFoo-2  x  1 ns/op",
		"BenchmarkFoo-2  1  fast ns/op",
		"PASS",
	} {
		if _, _, ok := parseBenchLine(line); ok {
			t.Errorf("%q parsed as a result", line)
		}
	}
}

func TestAssertions(t *testing.T) {
	entries := map[string]Entry{
		"BenchmarkPathLossDB":                {NsPerOp: 20, AllocsOp: 0},
		"BenchmarkFleetThroughput/workers=8": {NsPerOp: 5e8, Metrics: map[string]float64{"speedup-vs-serial": 1.1}},
	}
	for _, c := range []struct {
		spec string
		fail string // "" = passes
	}{
		{"BenchmarkPathLossDB:allocs_per_op<=0", ""},
		{"BenchmarkPathLossDB:ns_per_op<=19", "want <= 19"},
		{"BenchmarkFleetThroughput/workers=8:speedup-vs-serial>=0.8", ""},
		{"BenchmarkFleetThroughput/workers=8:speedup-vs-serial>=1.2", "want >= 1.2"},
		{"BenchmarkFleetThroughput/workers=8:allocs/job<=100", `has no metric "allocs/job"`},
		{"BenchmarkMissing:ns_per_op<=1", `no result for "BenchmarkMissing"`},
	} {
		a, err := parseAssertion(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		if a.String() != c.spec {
			t.Errorf("%s round-trips as %s", c.spec, a)
		}
		err = a.check(entries)
		if c.fail == "" && err != nil {
			t.Errorf("%s: unexpected %v", c.spec, err)
		}
		if c.fail != "" && (err == nil || !strings.Contains(err.Error(), c.fail)) {
			t.Errorf("%s: got %v, want error containing %q", c.spec, err, c.fail)
		}
	}
	for _, bad := range []string{"BenchmarkX:ns_per_op", "BenchmarkX:ns_per_op>=fast", "ns_per_op<=1", ":ns_per_op<=1", "BenchmarkX:<=1"} {
		if _, err := parseAssertion(bad); err == nil {
			t.Errorf("parseAssertion(%q) accepted", bad)
		}
	}
}
