#!/usr/bin/env bash
# Line count of the change from a base revision to the working tree:
# lines added, deleted and net, from `git diff --numstat`, with non-test
# Go files and _test.go files counted apart. New files count once they
# are tracked (git add).
#
#   ./scripts/loc.sh BASE        (or: make loc BASE=<rev>)
set -euo pipefail
base=${1:?usage: loc.sh BASE}
git diff --numstat --no-renames "$base" -- '*.go' | awk -v base="$base" '
{ k = ($3 ~ /_test\.go$/) ? "test" : "go"; add[k] += $1; del[k] += $2 }
END {
	printf "go lines since %s\n", base
	printf "  non-test Go: +%d -%d net %+d\n", add["go"], del["go"], add["go"] - del["go"]
	printf "  _test.go:    +%d -%d net %+d\n", add["test"], del["test"], add["test"] - del["test"]
}'
