# ARACHNET reproduction — common entry points.

GO ?= go

.PHONY: all build test test-short bench bench-smoke vet lint lint-alloc race check cover experiments examples fuzz-smoke smoke-fleetd loc clean

all: vet test

# Full verification gate: the build (which also vets the nested
# _perfbench module), go vet + gofmt, the domain analyzers
# (arachnet-lint), the static zero-alloc gate, the race detector over
# every package (the fleet pool and fleetd are the concurrent code
# paths this guards), and the daemon kill/restart determinism
# smoke. The zero-alloc gate rides inside `lint`.
check: build vet lint race smoke-fleetd

# Fleet-as-a-service smoke: SIGTERM arachnet-fleetd mid-sweep, restart
# it over the same checkpoint directory, and require the resumed report
# fingerprint to equal an uninterrupted batch run's (plus a response
# cache hit on resubmission). Real processes, real signals.
smoke-fleetd:
	./scripts/fleetd-smoke.sh

# Domain static analysis: determinism-taint, rng-discipline,
# map-order, units, panic-hygiene, sleep-discipline,
# goroutine-hygiene, alloc-discipline and the //lint:allow directive
# audit, each run per package over the type-checked module (see
# README.md, "Static analysis", and DESIGN.md §10). Any finding,
# a stale directive included, fails the build. Under GITHUB_ACTIONS=true findings are also
# emitted as ::error workflow annotations.
lint:
	$(GO) run ./cmd/arachnet-lint ./...
	$(GO) run ./cmd/arachnet-lint -alloc-gate ./...

# Static zero-alloc gate alone: compile with -gcflags=-m and diff the
# heap escapes inside //alloc:hot functions against
# scripts/escape-baseline.txt. New escapes and stale baseline entries
# fail; review deliberate ones with `go run ./cmd/arachnet-lint
# -alloc-update`.
lint-alloc:
	$(GO) run ./cmd/arachnet-lint -alloc-gate ./...

race:
	$(GO) test -race ./...

# _perfbench is a nested module that `go build ./...` skips; vetting it
# here catches an internal API change that would break the benchmark.
build:
	$(GO) build ./...
	cd _perfbench && $(GO) vet ./...

vet:
	$(GO) vet ./...
	gofmt -l . | tee /dev/stderr | wc -l | grep -q '^0$$'

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Scaling smoke for CI: re-run the fleet throughput benchmark and
# assert both workers=8 and workers=GOMAXPROCS clear the configurable
# speedup-vs-serial floor (on a host with fewer than 8 CPUs only the
# latter measures scaling; the former measures oversubscription).
# The default floor guards the flat-scaling regression this repo once
# shipped (workers=8 ran at 0.63x serial, see EXPERIMENTS.md "The
# flat-scaling fix"): even a single-core runner must stay near
# parity. Multi-core hosts should raise the floor (e.g.
# BENCH_SPEEDUP_FLOOR=2.0) to assert real parallel speedup.
# The wire-format gates ride along: the binary trace codec must encode
# at least 5x faster than the JSONL path, and a binary-traced fleet
# must stay within 1.5x of the untraced wall clock. The BiW path-loss
# lookup the event network makes per tag per beacon must not allocate,
# and neither may the event engine's schedule+fire once its free list
# is warm, nor a lane's or a cursor's push+fire once its buffer is. A
# chaos vehicle (c3, 10,000 slots, the fleet-sweep chaos plan) must
# stay within the fault-free fleet's allocs/job bound: its
# recovery analysis folds events as they arrive instead of buffering
# them. A clean vehicle must stay at 16 allocs/job or fewer, so the
# steady-state skip cannot allocate at every hyperperiod boundary
# (10,000 slots cross 312 of them). The waveform kernels of the dl-scheme and Fig. 12(b) Monte
# Carlo loops must not allocate, and the downlink kernel must stay at
# least 1.5x faster than its envelope-plus-trigger oracle. The
# certified Fig. 12(b) packet decoder must not allocate either, and
# must stay at least 1.4x faster than the exact synthesize-and-decode
# pair it falls back to. The fault injector's scheduled streams must
# not allocate and must stay at least 2x faster than the per-slot Bool
# loops they replaced. A running default event network must average at
# most 0.1 allocations per slot (0.05 measured): frames are words, the
# tag encodes into a reused chip buffer and every engine callback is
# bound once.
BENCH_SPEEDUP_FLOOR ?= 0.8
bench-smoke:
	$(GO) run ./cmd/arachnet-benchjson -bench FleetThroughput -benchtime 2x \
		-assert 'BenchmarkFleetThroughput/workers=8:speedup-vs-serial>=$(BENCH_SPEEDUP_FLOOR)' \
		-assert 'BenchmarkFleetThroughput/workers=gomaxprocs:speedup-vs-serial>=$(BENCH_SPEEDUP_FLOOR)' \
		-assert 'BenchmarkFleetThroughput/workers=8:allocs/job<=100' .
	$(GO) run ./cmd/arachnet-benchjson -bench '^BenchmarkVehicle$$' -benchtime 32x \
		-assert 'BenchmarkVehicle/clean:allocs/job<=16' \
		-assert 'BenchmarkVehicle/chaos:allocs/job<=100' .
	$(GO) run ./cmd/arachnet-benchjson -bench '^BenchmarkNetworkSlots$$' -benchtime 1000x \
		-assert 'BenchmarkNetworkSlots:allocs/slot<=0.1' .
	$(GO) run ./cmd/arachnet-benchjson -bench TraceEncode -benchtime 2000x \
		-assert 'BenchmarkTraceEncode/binary:speedup-vs-jsonl>=5' ./internal/obs
	$(GO) run ./cmd/arachnet-benchjson -bench TracedFleet -benchtime 2x \
		-assert 'BenchmarkTracedFleet/binary:overhead-vs-untraced<=1.5' .
	$(GO) run ./cmd/arachnet-benchjson -bench PathLossDB -benchtime 100000x \
		-assert 'BenchmarkPathLossDB:allocs_per_op<=0' ./internal/biw
	$(GO) run ./cmd/arachnet-benchjson -bench 'Engine(ScheduleFire|Lane|Cursor)' -benchtime 100000x \
		-assert 'BenchmarkEngineScheduleFire:allocs_per_op<=0' \
		-assert 'BenchmarkEngineLane:allocs_per_op<=0' \
		-assert 'BenchmarkEngineCursor:allocs_per_op<=0' ./internal/sim
	$(GO) run ./cmd/arachnet-benchjson -bench 'DLPulses|ULChipMeans|ULDecoder' -benchtime 200x \
		-assert 'BenchmarkDLPulses:allocs_per_op<=0' \
		-assert 'BenchmarkDLPulses:speedup-vs-oracle>=1.5' \
		-assert 'BenchmarkULChipMeans:allocs_per_op<=0' \
		-assert 'BenchmarkULDecoder:allocs_per_op<=0' \
		-assert 'BenchmarkULDecoder:speedup-vs-oracle>=1.4' ./internal/dsp
	$(GO) run ./cmd/arachnet-benchjson -bench Injector -benchtime 100000x \
		-assert 'BenchmarkInjector:allocs_per_op<=0' \
		-assert 'BenchmarkInjector:speedup-vs-oracle>=2' ./internal/faults

# Coverage-guided fuzzing smoke: 10 s on each native fuzz target in the
# phy codecs, the binary wire codecs, the event engine's queues
# against their plain-slice reference and the fleet spec decoder (go fuzzing allows one -fuzz
# pattern per invocation, hence the pkg:target loop). CI runs this on
# every push; longer local sessions just raise FUZZTIME.
FUZZTIME ?= 10s
FUZZ_TARGETS = \
	./internal/phy:FuzzUnmarshalUL \
	./internal/phy:FuzzUnmarshalDL \
	./internal/phy:FuzzPIEDecode \
	./internal/phy:FuzzFM0Decode \
	./internal/obs:FuzzUnmarshalEvent \
	./internal/fleet:FuzzUnmarshalJobOutcome \
	./internal/fleetd:FuzzUnmarshalCheckpoint \
	./internal/sim:FuzzEngineMatchesReference \
	./arachnet:FuzzUnmarshalFleetJSON
fuzz-smoke:
	for pt in $(FUZZ_TARGETS); do \
		pkg=$${pt%%:*}; target=$${pt##*:}; \
		$(GO) test $$pkg -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZTIME) || exit 1; \
	done

# Regenerate every table and figure of the paper's evaluation.
experiments:
	$(GO) run ./cmd/arachnet-experiments

# Run all example programs once.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/battery-monitor
	$(GO) run ./examples/strain-monitoring
	$(GO) run ./examples/aloha-comparison
	$(GO) run ./examples/outage-recovery
	$(GO) run ./examples/fleet-sweep
	$(GO) run ./examples/fleetd-client

# Net line count of the change since BASE (a git revision; default
# HEAD): lines added, deleted and net, non-test Go and _test.go apart.
BASE ?= HEAD
loc:
	./scripts/loc.sh $(BASE)

clean:
	$(GO) clean ./...
