package arachnet

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/faults"
)

// Chaos sweeps: fault-injected fleet runs must stay deterministic and
// must surface the recovery metrics.

func chaosFleet(workers int) Fleet {
	plan := faults.RandomPlan(7)
	return Fleet{
		Seed:    99,
		Workers: workers,
		Faults:  &plan,
		Vehicles: []VehicleSpec{
			{Name: "chaos", Pattern: "c7", Slots: 4000, Replicate: 4},
		},
	}
}

// The acceptance bar for the fault layer: a chaos sweep with a pinned
// seed is bit-identical across runs and across worker counts.
func TestFleetChaosDeterministicAcrossWorkers(t *testing.T) {
	ctx := context.Background()
	var prints []string
	for _, workers := range []int{1, 4, 1} {
		rep, err := chaosFleet(workers).Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.Completed; got != 4 {
			t.Fatalf("workers=%d: %d/4 jobs completed", workers, got)
		}
		prints = append(prints, rep.Fingerprint())
	}
	if prints[0] != prints[1] || prints[0] != prints[2] {
		t.Fatalf("chaos fingerprints diverge:\n  w1  %s\n  w4  %s\n  w1' %s",
			prints[0], prints[1], prints[2])
	}
}

func TestFleetChaosRecoveryMetrics(t *testing.T) {
	rep, err := chaosFleet(2).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Counters[FleetCounterFaultsInjected]; got == 0 {
		t.Fatal("chaos sweep injected no faults")
	}
	for _, j := range rep.Jobs {
		if _, ok := j.Result.Metrics[FleetMetricSettledChurn]; !ok {
			t.Errorf("job %s missing %s", j.Name, FleetMetricSettledChurn)
		}
		if _, ok := j.Result.Metrics[FleetMetricReconvergeSlots]; !ok {
			t.Errorf("job %s missing %s", j.Name, FleetMetricReconvergeSlots)
		}
	}
	// A vehicle-level plan overrides the fleet default.
	quiet := FaultPlan{}
	f := chaosFleet(1)
	f.Vehicles[0].Faults = &quiet
	f.Vehicles[0].Replicate = 1
	rep, err = f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Counters[FleetCounterFaultsInjected]; got != 0 {
		t.Fatalf("empty vehicle plan still injected %d faults", got)
	}
}

// The event-level engine takes the same plan: fades through the channel
// gain hook, outages through the carrier, brownouts through forced
// supercap drains — and reports the same metric names.
func TestNetworkEngineFaultPlan(t *testing.T) {
	plan := FaultPlan{
		Name:      "net-chaos",
		Fades:     &FaultFadeSpec{Burst: FaultBurst{EnterProb: 0.05, MeanSlots: 4}, DepthDB: 6},
		Brownouts: &FaultBrownoutSpec{Prob: 0.01, OffSlots: 5, Tags: []int{1, 2}},
	}
	f := Fleet{
		Seed:   5,
		Faults: &plan,
		Vehicles: []VehicleSpec{
			{Name: "net", Engine: "network", Pattern: "c3", Seconds: 60},
		},
	}
	rep, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 1 {
		t.Fatalf("network chaos job failed: %+v", rep.Jobs)
	}
	j := rep.Jobs[0]
	if j.Result.Counters[FleetCounterFaultsInjected] == 0 {
		t.Fatal("network chaos run injected no faults")
	}
	if _, ok := j.Result.Metrics[FleetMetricSettledChurn]; !ok {
		t.Errorf("network chaos job missing %s", FleetMetricSettledChurn)
	}
}

// chaosRun drives one fault-injected run of pattern on engine, with
// the injector and the simulator tracing into tr: 4,000 slots on the
// slots engine, 60 s on the network engine.
func chaosRun(t *testing.T, engine string, pattern Pattern, plan FaultPlan, seed uint64, tr *Tracer) {
	t.Helper()
	switch engine {
	case "slots":
		inj, err := NewFaultInjector(plan, seed, pattern.NumTags(), tr)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSlotSim(SlotSimConfig{Pattern: pattern, Seed: seed, Trace: tr, Faults: inj})
		if err != nil {
			t.Fatal(err)
		}
		s.Run(4000)
	case "network":
		cfg := NetworkConfig{Seed: seed, Trace: tr}
		for i, p := range pattern.Periods {
			cfg.Tags = append(cfg.Tags, TagSpec{TID: uint8(i + 1), Period: p, StartCharged: true})
		}
		net, err := NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.AttachFaults(plan, seed); err != nil {
			t.Fatal(err)
		}
		net.Run(60 * Second)
	}
}

// TestRecoveryFolderMatchesAnalyze: the folder a chaos tracer feeds as
// the run goes must report exactly what AnalyzeRecovery computes over
// a MemorySink that recorded the same run through the same mute set.
func TestRecoveryFolderMatchesAnalyze(t *testing.T) {
	brownouts := 0
	for _, engine := range []string{"slots", "network"} {
		for _, name := range []string{"c3", "c7"} {
			pattern, _ := Table3Pattern(name)
			for seed := uint64(1); seed <= 20; seed++ {
				plan := faults.RandomPlan(seed)
				rec, tr := NewChaosTracer()
				chaosRun(t, engine, pattern, plan, seed, tr)
				got := rec.Report()

				sink := NewMemorySink()
				ref := NewTracer(sink)
				ref.Mute(TraceSlotOpen, TraceSlotClose, TraceSimEvent, TraceDecode)
				chaosRun(t, engine, pattern, plan, seed, ref)
				want := AnalyzeRecovery(sink.Events())

				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s seed %d: folder differs from Analyze:\n  folder  %+v\n  analyze %+v",
						engine, name, seed, got, want)
				}
				if again := rec.Report(); !reflect.DeepEqual(again, got) {
					t.Fatalf("%s %s seed %d: second Report differs:\n  first  %+v\n  second %+v",
						engine, name, seed, got, again)
				}
				brownouts += got.Brownouts
			}
		}
	}
	if brownouts == 0 {
		t.Fatal("no run browned out a tag; the arcs went unchecked")
	}
}
