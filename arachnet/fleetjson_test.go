package arachnet_test

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/arachnet"
	"repro/internal/faults"
	"repro/internal/fleetd"
)

// specFixture sets every field of the fleet spec schema: a pinned
// seed, explicit periods, a network block, fleet and vehicle fault
// plans and a job timeout.
func specFixture() arachnet.Fleet {
	seed := uint64(77)
	net := arachnet.NetworkConfig{
		Seed: 5, SlotDuration: 500 * arachnet.Millisecond, ULDivider: 16, DLRate: 125,
		Tags: []arachnet.TagSpec{{TID: 1, Period: 4, StartCharged: true}, {TID: 3, Period: 8, WithSensor: true}},
	}
	return arachnet.Fleet{
		Seed: 21, Workers: 4, JobTimeout: 90 * time.Second,
		Faults: &arachnet.FaultPlan{Name: "fleet-default",
			Feedback:  &faults.FeedbackSpec{LossProb: 0.002, CorruptProb: 0.001},
			Brownouts: &faults.BrownoutSpec{Prob: 0.0005, OffSlots: 10, Tags: []int{2, 3}}},
		Vehicles: []arachnet.VehicleSpec{
			{Name: "sweep", Pattern: "c4", ConvergeWithin: 400_000, Replicate: 8},
			{Name: "pinned", Engine: "slots", Periods: []arachnet.Period{4, 8, 8}, Slots: 2500, Seed: &seed,
				Faults: &arachnet.FaultPlan{Name: "vehicle",
					Fades:         &faults.FadeSpec{Burst: faults.Burst{EnterProb: 0.01, MeanSlots: 4}, DepthDB: 6, BeaconLossProb: 0.1, Tags: []int{1}},
					ReaderOutages: &faults.OutageSpec{Burst: faults.Burst{EnterProb: 0.001, MeanSlots: 20}, ResetOnRestart: true},
					ClockJitter:   &faults.JitterSpec{SlipProb: 0.003}}},
			{Name: "suv", Engine: "network", Seconds: 45, Network: &net, ChargeFromEmpty: true},
		},
	}
}

// specFixtureCanonical is fleetd's canonical form of specFixture, the
// bytes a fleetd spec key hashes. It was recorded from the mirror-struct
// encoder the schema used to have; a change here moves every spec key.
const specFixtureCanonical = `{"faults":{"brownouts":{"off_slots":10,"prob":0.0005,"tags":[2,3]},"feedback":{"corrupt_prob":0.001,"loss_prob":0.002},"name":"fleet-default"},"job_timeout_ms":90000,"seed":21,"vehicles":[{"converge_within":400000,"name":"sweep","pattern":"c4","replicate":8},{"engine":"slots","faults":{"clock_jitter":{"slip_prob":0.003},"fades":{"beacon_loss_prob":0.1,"depth_db":6,"enter_prob":0.01,"mean_slots":4,"tags":[1]},"name":"vehicle","reader_outages":{"enter_prob":0.001,"mean_slots":20,"reset_on_restart":true}},"name":"pinned","periods":[4,8,8],"seed":77,"slots":2500},{"charge_from_empty":true,"engine":"network","name":"suv","network":{"dl_rate_bps":125,"seed":5,"slot_duration_us":500000,"tags":[{"period":4,"start_charged":true,"tid":1},{"period":8,"tid":3,"with_sensor":true}],"ul_divider":16},"seconds":45}],"workers":4}`

// TestFleetSpecWireForm pins the spec wire form: the canonical bytes
// of a spec that sets every field must not move.
func TestFleetSpecWireForm(t *testing.T) {
	data, err := arachnet.MarshalFleetJSON(specFixture())
	if err != nil {
		t.Fatal(err)
	}
	canon, err := fleetd.CanonicalSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if string(canon) != specFixtureCanonical {
		t.Fatalf("canonical spec moved:\n got %s\nwant %s", canon, specFixtureCanonical)
	}
	got, err := arachnet.UnmarshalFleetJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, specFixture()) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, specFixture())
	}
}

// docSpecs returns the fleet spec examples of EXPERIMENTS.md: each is
// the JSON document that starts on a line beginning {"seed".
func docSpecs(tb testing.TB) [][]byte {
	doc, err := os.ReadFile("../EXPERIMENTS.md")
	if err != nil {
		tb.Fatal(err)
	}
	var specs [][]byte
	for off := 0; ; {
		i := bytes.Index(doc[off:], []byte("\n{\"seed\""))
		if i < 0 {
			return specs
		}
		off += i + 1
		var raw json.RawMessage
		if err := json.NewDecoder(bytes.NewReader(doc[off:])).Decode(&raw); err != nil {
			tb.Fatalf("EXPERIMENTS.md spec at byte %d: %v", off, err)
		}
		specs = append(specs, raw)
	}
}

// TestDocFleetSpecs checks that the spec examples in EXPERIMENTS.md
// decode to the fleets they describe.
func TestDocFleetSpecs(t *testing.T) {
	fig15 := arachnet.Fleet{Seed: 2025}
	for _, p := range []string{"c1", "c2", "c3", "c4"} {
		fig15.Vehicles = append(fig15.Vehicles, arachnet.VehicleSpec{Name: p, Pattern: p, ConvergeWithin: 500_000, Replicate: 16})
	}
	want := []arachnet.Fleet{fig15, {Seed: 42, Workers: 2, Vehicles: []arachnet.VehicleSpec{
		{Name: "sweep", Engine: "slots", Pattern: "c1", Slots: 2000, Replicate: 4},
	}}}
	specs := docSpecs(t)
	if len(specs) != len(want) {
		t.Fatalf("EXPERIMENTS.md has %d fleet specs, want %d", len(specs), len(want))
	}
	for i, raw := range specs {
		got, err := arachnet.UnmarshalFleetJSON(raw)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("spec %d:\n got %+v\nwant %+v", i, got, want[i])
		}
	}
}

// TestFleetJobTimeoutRange checks that job_timeout_ms is rejected when
// it is negative or its nanoseconds overflow: the pool would read
// either as a timeout <= 0, which means no limit.
func TestFleetJobTimeoutRange(t *testing.T) {
	for _, tc := range []struct {
		ms   string
		want time.Duration // -1: rejected
	}{
		{"-1", -1},
		{"9300000000000", -1},
		{"0", 0},
		{"90000", 90 * time.Second},
	} {
		f, err := arachnet.UnmarshalFleetJSON([]byte(`{"job_timeout_ms":` + tc.ms + `,"vehicles":[{"pattern":"c1"}]}`))
		switch {
		case tc.want < 0 && err == nil:
			t.Errorf("job_timeout_ms %s: accepted as %v, want an error", tc.ms, f.JobTimeout)
		case tc.want < 0 && !strings.Contains(err.Error(), "job_timeout_ms"):
			t.Errorf("job_timeout_ms %s: error %q does not name the field", tc.ms, err)
		case tc.want >= 0 && err != nil:
			t.Errorf("job_timeout_ms %s: %v", tc.ms, err)
		case tc.want >= 0 && f.JobTimeout != tc.want:
			t.Errorf("job_timeout_ms %s: timeout %v, want %v", tc.ms, f.JobTimeout, tc.want)
		}
	}
}

// FuzzUnmarshalFleetJSON drives hostile bytes through the spec
// decoder. It must never panic, and an accepted spec must reach a
// byte fixed point: encode, decode and encode again yields the same
// bytes. It parses only; Fleet.Jobs would expand replicate unbounded.
func FuzzUnmarshalFleetJSON(f *testing.F) {
	fixture, err := arachnet.MarshalFleetJSON(specFixture())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	for _, raw := range docSpecs(f) {
		f.Add(raw)
	}
	f.Add([]byte(`{"vehicles":[{"network":{"tags":[{"tid":1,"period":4}]}}]}`))
	f.Add([]byte(`{"job_timeout_ms":-1,"vehicles":[{"seed":18446744073709551615}]}`))
	f.Add([]byte(`{"job_timeout_ms":9300000000000,"vehicles":[{}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		fl, err := arachnet.UnmarshalFleetJSON(data)
		if err != nil {
			return
		}
		canon, err := arachnet.MarshalFleetJSON(fl)
		if err != nil {
			t.Fatalf("encoding an accepted spec failed: %v", err)
		}
		fl2, err := arachnet.UnmarshalFleetJSON(canon)
		if err != nil {
			t.Fatalf("re-decoding an encoded spec failed: %v\n%s", err, canon)
		}
		again, err := arachnet.MarshalFleetJSON(fl2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, canon) {
			t.Fatalf("spec encoding is not a fixed point:\n%s\n%s", canon, again)
		}
	})
}
