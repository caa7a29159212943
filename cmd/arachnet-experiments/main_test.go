package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/arachnet"
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

// TestWriteErrorFails: a stdout that refuses writes (a full disk)
// fails the run in both output formats.
func TestWriteErrorFails(t *testing.T) {
	for _, args := range [][]string{{"table1"}, {"-format", "csv", "table1"}} {
		var stderr bytes.Buffer
		if code := run(args, failWriter{}, &stderr); code != 1 {
			t.Errorf("run %q = %d, want 1", args, code)
		}
		if !strings.Contains(stderr.String(), "table1: no space left") {
			t.Errorf("run %q stderr %q", args, stderr.String())
		}
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("no space left on device") }

// TestTraceRecordsEveryTrial: -trace observes every trial fan-out —
// fig12a's captures as well as fig15a's seeds — with one job_start and
// one job_finish per trial, and leaves stdout untouched.
func TestTraceRecordsEveryTrial(t *testing.T) {
	args := []string{"-quick", "-workers", "1", "fig12a", "fig15a"}
	var plain, stderr bytes.Buffer
	if code := run(args, &plain, &stderr); code != 0 {
		t.Fatalf("run %q = %d, stderr %q", args, code, stderr.String())
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	var traced bytes.Buffer
	targs := append([]string{"-trace", path}, args...)
	if code := run(targs, &traced, &stderr); code != 0 {
		t.Fatalf("run %q = %d, stderr %q", targs, code, stderr.String())
	}
	if traced.String() != plain.String() {
		t.Fatalf("-trace changed stdout:\n got %q\nwant %q", traced.String(), plain.String())
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	starts, finishes := map[string]int{}, map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var ev arachnet.TraceEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		switch ev.Kind {
		case arachnet.TraceJobStart:
			starts[ev.Name]++
		case arachnet.TraceJobFinish:
			finishes[ev.Name]++
			if ev.Detail != "ok" {
				t.Errorf("%s finished %q", ev.Name, ev.Detail)
			}
		}
	}
	// fig12a: 6 rates x 3 tags; fig15a: c1..c5 x 7 quick seeds.
	var want []string
	for i := 0; i < 18; i++ {
		want = append(want, fmt.Sprintf("fig12a-%d", i))
	}
	for c := 1; c <= 5; c++ {
		for seed := 0; seed < 7; seed++ {
			want = append(want, fmt.Sprintf("fig15-c%d-%d", c, seed))
		}
	}
	for _, name := range want {
		if starts[name] != 1 || finishes[name] != 1 {
			t.Errorf("trial %s: %d job_start, %d job_finish, want 1 each", name, starts[name], finishes[name])
		}
	}
	if len(starts) != len(want) || len(finishes) != len(want) {
		t.Errorf("trace covers %d started and %d finished trials, want %d", len(starts), len(finishes), len(want))
	}
}
