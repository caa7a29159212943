package arachnet

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/faults"
)

// Pooling equivalence: the fleet runs every job on a pooled clone (a
// SlotSim reset to the job seed, or a Network cloned from a frozen
// snapshot). A clone that has already served another job must be
// indistinguishable from a freshly constructed simulator. The reference
// runs here are built from scratch in test code, so the check needs no
// second path in production.

// poolingFleet mixes the three job shapes the pool serves: a plain
// steady-state sweep, a convergence-mode sweep, and a chaos vehicle
// with a per-vehicle fault plan (exercising the pooled tracer pair and
// the per-job injector).
func poolingFleet(workers int) Fleet {
	plan := faults.RandomPlan(42)
	return Fleet{
		Seed:    17,
		Workers: workers,
		Vehicles: []VehicleSpec{
			{Name: "steady", Pattern: "c2", Slots: 3000, Replicate: 6},
			{Name: "sweep", Pattern: "c3", ConvergeWithin: 500_000, Replicate: 6},
			{Name: "chaos", Pattern: "c7", Slots: 2000, Replicate: 4, Faults: &plan},
		},
	}
}

// TestFleetPooledFingerprintAcrossWorkers runs the three-shape fleet at
// workers 1, 4 and 8; all three reports must carry the same
// fingerprint, however the clones are shared between jobs.
func TestFleetPooledFingerprintAcrossWorkers(t *testing.T) {
	var base string
	for _, workers := range []int{1, 4, 8} {
		rep, err := poolingFleet(workers).Run(context.Background())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !rep.Ok() {
			t.Fatalf("workers=%d: %s", workers, rep.FirstError())
		}
		fp := rep.Fingerprint()
		if base == "" {
			base = fp
		} else if fp != base {
			t.Errorf("fingerprint diverges at workers=%d:\n  base %s\n  got  %s", workers, base, fp)
		}
	}
}

// TestSlotsJobPooledMatchesFresh runs a vehicle's pooled job function
// on a seed right after a dirtying job on another seed, and compares
// the result with a simulator (and, for chaos jobs, an injector and
// tracer) constructed from scratch for that seed.
func TestSlotsJobPooledMatchesFresh(t *testing.T) {
	ctx := context.Background()
	plan := faults.RandomPlan(42)
	for _, v := range []VehicleSpec{
		{Name: "chaos", Pattern: "c7", Slots: 2000, Faults: &plan},
		{Name: "sweep", Pattern: "c3", ConvergeWithin: 500_000},
	} {
		run, err := v.jobFunc()
		if err != nil {
			t.Fatal(err)
		}
		pt, err := v.periods()
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 4; seed++ {
			if _, err := run(ctx, FleetJobInfo{Seed: seed + 1000}); err != nil {
				t.Fatalf("%s dirtying seed %d: %v", v.Name, seed+1000, err)
			}
			got, err := run(ctx, FleetJobInfo{Seed: seed})
			if err != nil {
				t.Fatalf("%s seed %d: %v", v.Name, seed, err)
			}

			cfg := SlotSimConfig{Pattern: pt, Seed: seed}
			var rec *Recovery
			var inj *FaultInjector
			if v.Faults != nil {
				rec, cfg.Trace = NewChaosTracer()
				inj, err = NewFaultInjector(*v.Faults, seed, pt.NumTags(), cfg.Trace)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Faults = inj
			}
			s, err := NewSlotSim(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := measureSlotsRun(ctx, s, v.Slots, v.ConvergeWithin, rec, inj)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s seed %d: pooled job differs from a fresh run:\n  pooled %+v\n  fresh  %+v", v.Name, seed, got, want)
			}
		}
	}
}

// TestNetworkSnapshotCloneMatchesFresh clones a network for a seed
// after a dirtying chaos clone of the same snapshot, and requires the
// clone to match NewNetwork with that seed on Stats and on the full
// trace event list.
func TestNetworkSnapshotCloneMatchesFresh(t *testing.T) {
	const seed, seconds = 9, 20
	end := Time(seconds) * Second
	cfg := NetworkConfig{}
	for i, p := range Table3Patterns()[2].Periods { // c3
		cfg.Tags = append(cfg.Tags, TagSpec{TID: uint8(i + 1), Period: p, StartCharged: true})
	}
	snap, err := NewNetworkSnapshot(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Dirty the snapshot's shared parts through a faulted clone: fades
	// write the clone's channel hook, outages toggle its carrier.
	_, dtr := NewChaosTracer()
	dirty, err := snap.Clone(seed+1, dtr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dirty.AttachFaults(faults.RandomPlan(7), seed+1); err != nil {
		t.Fatal(err)
	}
	dirty.Run(end)

	cloneSink := NewMemorySink()
	clone, err := snap.Clone(seed, NewTracer(cloneSink))
	if err != nil {
		t.Fatal(err)
	}
	clone.Run(end)

	freshSink := NewMemorySink()
	fresh := cfg
	fresh.Seed = seed
	fresh.Trace = NewTracer(freshSink)
	net, err := NewNetwork(fresh)
	if err != nil {
		t.Fatal(err)
	}
	net.Run(end)

	if got, want := clone.Stats(), net.Stats(); !reflect.DeepEqual(got, want) {
		t.Errorf("clone stats differ from a fresh network:\n  clone %+v\n  fresh %+v", got, want)
	}
	got, want := cloneSink.Events(), freshSink.Events()
	if len(want) == 0 {
		t.Fatal("fresh network traced no events")
	}
	if !reflect.DeepEqual(got, want) {
		n := min(len(got), len(want))
		for i := 0; i < n; i++ {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("trace diverges at event %d of %d/%d:\n  clone %+v\n  fresh %+v", i, len(got), len(want), got[i], want[i])
			}
		}
		t.Fatalf("trace lengths differ: clone %d, fresh %d events", len(got), len(want))
	}
}

// TestNetworkSnapshotConcurrentClones clones one snapshot from four
// goroutines at once, as fig13a and the fleet network engine do; the
// clones share the deployment and its path table, and each run must
// equal a serial run of the same seed (run under -race by make race).
func TestNetworkSnapshotConcurrentClones(t *testing.T) {
	const workers = 4
	end := 2 * Second
	cfg := NetworkConfig{}
	for i, p := range Table3Patterns()[2].Periods { // c3
		cfg.Tags = append(cfg.Tags, TagSpec{TID: uint8(i + 1), Period: p, StartCharged: true})
	}
	snap, err := NewNetworkSnapshot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed uint64) (NetworkStats, error) {
		net, err := snap.Clone(seed, nil)
		if err != nil {
			return NetworkStats{}, err
		}
		net.Run(end)
		return net.Stats(), nil
	}

	got := make([]NetworkStats, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w], errs[w] = run(uint64(w + 1))
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		want, err := run(uint64(w + 1))
		if err != nil {
			t.Fatal(err)
		}
		if want.Slots == 0 {
			t.Fatalf("seed %d: the serial run ran no slots", w+1)
		}
		if !reflect.DeepEqual(got[w], want) {
			t.Errorf("seed %d: concurrent clone %+v, serial %+v", w+1, got[w], want)
		}
	}
}

// TestFleetSpecIgnoresLegacyPoolingFlag pins that specs written when
// the fleet had a per-vehicle "rebuild" switch still parse, and run
// exactly as the same spec without it.
func TestFleetSpecIgnoresLegacyPoolingFlag(t *testing.T) {
	const legacy = `{"seed": 3, "vehicles": [{"name": "old", "pattern": "c1", "slots": 400, "replicate": 3, "rebuild": true}]}`
	const current = `{"seed": 3, "vehicles": [{"name": "old", "pattern": "c1", "slots": 400, "replicate": 3}]}`
	var prints []string
	for _, spec := range []string{legacy, current} {
		f, err := UnmarshalFleetJSON([]byte(spec))
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		rep, err := f.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Ok() {
			t.Fatal(rep.FirstError())
		}
		prints = append(prints, rep.Fingerprint())
	}
	if prints[0] != prints[1] {
		t.Errorf("legacy spec fingerprint %s != current spec %s", prints[0], prints[1])
	}
}
