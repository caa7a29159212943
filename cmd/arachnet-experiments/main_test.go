package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOutputGolden pins the command's stdout byte for byte: the -list
// text, and the table, CSV and -quick renderings of cheap subsets.
func TestOutputGolden(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"list.golden", []string{"-list"}},
		{"subset.golden", []string{"table1", "table3", "ablation-interrupt"}},
		{"subset.csv.golden", []string{"-format", "csv", "table1", "table3", "ablation-interrupt"}},
		{"quick-seed3.golden", []string{"-quick", "-seed", "3", "fig13a", "fig16", "ablation-empty"}},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", c.golden))
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != 0 {
				t.Fatalf("run %q = %d, stderr %q", c.args, code, stderr.String())
			}
			if got := stdout.String(); got != string(want) {
				t.Fatalf("run %q stdout differs from %s:\n got %q\nwant %q", c.args, c.golden, got, want)
			}
		})
	}
}

// TestUsageErrors: unknown experiment names and a bad -format exit 2
// with a message on stderr and nothing on stdout.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		args []string
		msg  string
	}{
		{[]string{"table1", "nope", "fig99"}, "unknown experiments: fig99, nope (use -list)"},
		{[]string{"-format", "json", "table1"}, `unknown -format "json" (table or csv)`},
		{[]string{"-format", "json", "-list"}, `unknown -format "json"`},
		{[]string{"-no-such-flag"}, "flag provided but not defined"},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 2 {
			t.Errorf("run %q = %d, want 2", c.args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("run %q wrote stdout %q", c.args, stdout.String())
		}
		if !strings.Contains(stderr.String(), c.msg) {
			t.Errorf("run %q stderr %q, want %q", c.args, stderr.String(), c.msg)
		}
	}
}
