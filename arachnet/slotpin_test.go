package arachnet

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestSlotsEngineFingerprints pins the slots engine end to end: the
// fleet-sweep benchmark's fleet (c1..c9, 16 fault-free and 4 chaos
// replicas each, 10,000 slots, testdata/chaos-plan.json) at the first
// two fleet seeds the benchmark derives from seed 1. A change to the
// slot simulator, the reader protocol, the fault injector or the
// recovery fold that moves one random draw or one event moves these.
func TestSlotsEngineFingerprints(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "testdata", "chaos-plan.json"))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := UnmarshalFaultPlan(data)
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range []string{"40815f35d217d407", "86c3ce47f7756d68"} {
		var vs []VehicleSpec
		for _, p := range []string{"c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "c9"} {
			vs = append(vs,
				VehicleSpec{Name: p, Engine: "slots", Pattern: p, Slots: 10_000, Replicate: 16},
				VehicleSpec{Name: p + "-chaos", Engine: "slots", Pattern: p, Slots: 10_000, Replicate: 4, Faults: &plan})
		}
		rep, err := Fleet{Seed: DeriveFleetSeed(1, uint64(k)), Vehicles: vs}.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Ok() {
			t.Fatalf("seed %d: %s", k, rep.FirstError())
		}
		if got := rep.Fingerprint(); got != want {
			t.Errorf("fleet seed %d: fingerprint %s, want %s", k, got, want)
		}
	}
}

// TestHugePeriodBoundedMemory runs a vehicle whose longest period is
// 2^40 slots. The reader's tables must be sized by the population and
// a bounded slot span, never by the period: the whole run allocates at
// most 64 KiB.
func TestHugePeriodBoundedMemory(t *testing.T) {
	f, err := UnmarshalFleetJSON([]byte(`{"seed":1,"vehicles":[{"name":"big","engine":"slots","periods":[1099511627776,4,8],"slots":5000}]}`))
	if err != nil {
		t.Fatal(err)
	}
	f.Workers = 1
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	rep, err := f.Run(context.Background())
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatal(rep.FirstError())
	}
	d := m1.TotalAlloc - m0.TotalAlloc
	if d > 64<<10 {
		t.Errorf("run allocated %d bytes, want <= 64 KiB", d)
	}
	t.Logf("run allocated %d bytes", d)
	if got, want := rep.Fingerprint(), "6db553aaaa98c580"; got != want {
		t.Errorf("fingerprint %s, want %s", got, want)
	}
}
