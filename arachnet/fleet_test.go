package arachnet

import (
	"context"
	"strings"
	"testing"
	"time"
)

// TestFleetDeterminism is the public-surface determinism regression:
// one fleet spec, run serially (1 worker) and widely sharded (7
// workers), must produce bit-identical reports — seed-derived,
// order-independent merge.
func TestFleetDeterminism(t *testing.T) {
	spec := Fleet{
		Seed: 11,
		Vehicles: []VehicleSpec{
			{Name: "sweep-c3", Pattern: "c3", ConvergeWithin: 500_000, Replicate: 12},
			{Name: "steady-c2", Pattern: "c2", Slots: 4000, Replicate: 4},
		},
	}
	var prints []string
	var reports []*FleetReport
	for _, workers := range []int{1, 7} {
		f := spec
		f.Workers = workers
		rep, err := f.Run(context.Background())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !rep.Ok() {
			t.Fatalf("workers=%d: %s", workers, rep.FirstError())
		}
		prints = append(prints, rep.Fingerprint())
		reports = append(reports, rep)
	}
	if prints[0] != prints[1] {
		t.Errorf("fleet results depend on worker count: %s vs %s", prints[0], prints[1])
	}
	// Spot-check the aggregate itself, not just the hash.
	d1 := reports[0].Metrics[FleetMetricConvergenceSlots]
	d7 := reports[1].Metrics[FleetMetricConvergenceSlots]
	if d1 != d7 {
		t.Errorf("convergence distribution diverges: %+v vs %+v", d1, d7)
	}
	if d1.Count != 16 {
		t.Errorf("expected 16 convergence samples, got %d", d1.Count)
	}
	if reports[0].Counters[FleetCounterSlots] != reports[1].Counters[FleetCounterSlots] {
		t.Error("slot counters diverge across worker counts")
	}
}

// TestFleetNetworkEngine runs a small event-level fleet end to end.
func TestFleetNetworkEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("event-level fleet is slow")
	}
	f := Fleet{
		Seed:    3,
		Workers: 2,
		Vehicles: []VehicleSpec{
			{Name: "suv", Engine: "network", Pattern: "c3", Seconds: 60, Replicate: 2},
		},
	}
	rep, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatal(rep.FirstError())
	}
	if rep.Counters[FleetCounterSlots] == 0 {
		t.Error("network engine reported no slots")
	}
	if rep.Counters[FleetCounterDecoded] == 0 {
		t.Error("network engine decoded nothing")
	}
	if rep.Metrics[FleetMetricNonEmptyRatio].Count != 2 {
		t.Errorf("metrics: %+v", rep.Metrics)
	}
}

// TestFleetVehicleValidation covers the spec-compilation errors.
func TestFleetVehicleValidation(t *testing.T) {
	if _, err := (Fleet{Vehicles: []VehicleSpec{{Pattern: "c99"}}}).Jobs(); err == nil {
		t.Error("unknown pattern accepted")
	}
	if _, err := (Fleet{Vehicles: []VehicleSpec{{Engine: "quantum"}}}).Jobs(); err == nil {
		t.Error("unknown engine accepted")
	}
	// Defaults: unnamed vehicle, default pattern/engine.
	specs, err := (Fleet{Vehicles: []VehicleSpec{{}}}).Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || specs[0].Name != "vehicle-0" {
		t.Errorf("specs: %+v", specs)
	}
	// Pinned seeds step per replica.
	pinned := uint64(100)
	specs, err = (Fleet{Vehicles: []VehicleSpec{{Name: "p", Seed: &pinned, Replicate: 3}}}).Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if specs[2].Seed != 102 || !specs[2].HasSeed {
		t.Errorf("replica seeds: %+v", specs)
	}
	if specs[1].Name != "p-1" {
		t.Errorf("replica names: %+v", specs)
	}
}

// TestFleetTimeoutIsolation: an undersized convergence cap fails only
// the vehicle it belongs to; a tight wall-clock timeout trips the
// cooperative cancellation inside the slot engine.
func TestFleetTimeoutIsolation(t *testing.T) {
	f := Fleet{
		Seed:    5,
		Workers: 2,
		Vehicles: []VehicleSpec{
			{Name: "ok", Pattern: "c1", ConvergeWithin: 500_000},
			// c5 at utilization 1.0 converges in thousands of slots;
			// 8 slots can never be enough, so the job must fail.
			{Name: "doomed", Pattern: "c5", ConvergeWithin: 8},
		},
	}
	rep, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 1 || rep.Failed != 1 {
		t.Fatalf("counts: %+v", rep)
	}
	if rep.Jobs[1].Status != FleetJobFailed || !strings.Contains(rep.Jobs[1].Err, "no convergence") {
		t.Errorf("doomed job: %+v", rep.Jobs[1])
	}

	// Wall-clock timeout: a huge fixed-slot run cannot finish in 1 ns.
	f = Fleet{
		JobTimeout: time.Nanosecond,
		Vehicles:   []VehicleSpec{{Name: "slow", Pattern: "c2", Slots: 50_000_000}},
	}
	rep, err = f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.TimedOut != 1 {
		t.Fatalf("expected timeout: %+v", rep.Jobs[0])
	}
}

// TestFleetJSONRoundTrip pins the fleet spec wire format.
func TestFleetJSONRoundTrip(t *testing.T) {
	netCfg := DefaultNetworkConfig()
	pinned := uint64(77)
	f := Fleet{
		Seed:       21,
		Workers:    4,
		JobTimeout: 90 * time.Second,
		Vehicles: []VehicleSpec{
			{Name: "sweep", Pattern: "c4", ConvergeWithin: 400_000, Replicate: 8},
			{Name: "pinned", Periods: []Period{4, 8, 8}, Slots: 2500, Seed: &pinned},
			{Name: "suv", Engine: "network", Seconds: 45, Network: &netCfg, ChargeFromEmpty: true},
		},
	}
	data, err := MarshalFleetJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalFleetJSON(data)
	if err != nil {
		t.Fatalf("%v\nspec:\n%s", err, data)
	}
	if got.Seed != 21 || got.Workers != 4 || got.JobTimeout != 90*time.Second {
		t.Errorf("fleet header: %+v", got)
	}
	if len(got.Vehicles) != 3 {
		t.Fatalf("vehicles: %d", len(got.Vehicles))
	}
	if got.Vehicles[0].Replicate != 8 || got.Vehicles[0].Pattern != "c4" {
		t.Errorf("vehicle 0: %+v", got.Vehicles[0])
	}
	if got.Vehicles[1].Seed == nil || *got.Vehicles[1].Seed != 77 || len(got.Vehicles[1].Periods) != 3 {
		t.Errorf("vehicle 1: %+v", got.Vehicles[1])
	}
	if got.Vehicles[2].Network == nil || len(got.Vehicles[2].Network.Tags) != len(netCfg.Tags) {
		t.Errorf("vehicle 2 network: %+v", got.Vehicles[2].Network)
	}
	// Compiled job lists must agree.
	a, err := f.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	b, err := got.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("job counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Seed != b[i].Seed || a[i].HasSeed != b[i].HasSeed {
			t.Errorf("job %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Bad specs are rejected before any job runs: parse errors by
	// UnmarshalFleetJSON, provisioning errors by the compile.
	if _, err := UnmarshalFleetJSON([]byte(`{"vehicles":[]}`)); err == nil {
		t.Error("empty fleet accepted")
	}
	bad, err := UnmarshalFleetJSON([]byte(`{"vehicles":[{"pattern":"nope"}]}`))
	if err != nil {
		t.Fatalf("parse of a well-formed spec failed: %v", err)
	}
	if _, err := bad.Jobs(); err == nil {
		t.Error("bad pattern accepted")
	}
	if _, err := UnmarshalFleetJSON([]byte(`{not json`)); err == nil {
		t.Error("bad JSON accepted")
	}
}
