package arachnet

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

// Fault injection: power interruption and recovery.

func TestCarrierOutageBrownsOutAndRecovers(t *testing.T) {
	cfg := DefaultNetworkConfig()
	cfg.Seed = 21
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Settle first.
	net.Run(600 * Second)
	if !net.Stats().Converged {
		t.Fatal("setup: no convergence")
	}
	for _, spec := range net.Cfg.Tags {
		if !net.Tag(spec.TID).Powered() {
			t.Fatalf("setup: tag %d unpowered", spec.TID)
		}
	}

	// Kill the carrier. The shunt held the caps near 2.45 V, so the
	// fleet coasts on the few-uA sleep floor for roughly
	// C*(2.45-1.95)/I ~ 80 s before the cutoff trips.
	net.SetCarrier(false)
	net.Run(net.Now() + 400*Second)
	browned := 0
	for _, spec := range net.Cfg.Tags {
		if !net.Tag(spec.TID).Powered() {
			browned++
		}
	}
	if browned != len(net.Cfg.Tags) {
		t.Fatalf("only %d/%d tags browned out after 400 s without carrier",
			browned, len(net.Cfg.Tags))
	}

	// Restore the carrier: tags recharge from LTH (fast) and reappear
	// as late arrivals through the EMPTY gate; the network re-converges.
	net.SetCarrier(true)
	net.Run(net.Now() + 1200*Second)
	alive := 0
	for _, spec := range net.Cfg.Tags {
		dev := net.Tag(spec.TID)
		if dev.Powered() {
			alive++
		}
		if dev.Activations() < 2 {
			t.Errorf("tag %d never re-activated (activations=%d)", dev.Cfg.TID, dev.Activations())
		}
	}
	if alive != len(net.Cfg.Tags) {
		t.Fatalf("%d/%d tags recovered", alive, len(net.Cfg.Tags))
	}
}

func TestOutageSurvivalOrderMatchesCoupling(t *testing.T) {
	// During an outage all tags discharge at the same few-uA floor, so
	// brown-out order is roughly uniform; but recovery order must track
	// the harvest hierarchy: tag 8 (best-coupled) re-activates before
	// tag 11 (worst).
	cfg := DefaultNetworkConfig()
	cfg.Seed = 22
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.Run(60 * Second)
	net.SetCarrier(false)
	net.Run(net.Now() + 400*Second) // everyone dark
	net.SetCarrier(true)

	var tag8At, tag11At Time
	deadline := net.Now() + 600*Second
	for net.Now() < deadline {
		net.Run(net.Now() + Second)
		if tag8At == 0 && net.Tag(8).Powered() {
			tag8At = net.Now()
		}
		if tag11At == 0 && net.Tag(11).Powered() {
			tag11At = net.Now()
		}
		if tag8At != 0 && tag11At != 0 {
			break
		}
	}
	if tag8At == 0 || tag11At == 0 {
		t.Fatalf("recovery incomplete: tag8=%v tag11=%v", tag8At, tag11At)
	}
	if tag8At >= tag11At {
		t.Errorf("tag 8 (%v) should recover before tag 11 (%v)", tag8At, tag11At)
	}
}

func TestNetworkStatsString(t *testing.T) {
	cfg := DefaultNetworkConfig()
	cfg.Seed = 23
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.Run(30 * Second)
	s := net.Stats().String()
	for _, want := range []string{"slots=", "decoded=", "tag  1", "tag 12", "rx=", "beacons="} {
		if !strings.Contains(s, want) {
			t.Errorf("stats string missing %q:\n%s", want, s)
		}
	}
}

// A fault plan on a network whose TIDs are not 1..n (the jsonconfig
// example's {1, 11}) hits the configured tags: every fault event names
// a deployed TID, tag 11 browns out and fades, and the fade hook
// answers for TID 11 only while its fade is on.
func TestNetworkFaultsFollowConfiguredTIDs(t *testing.T) {
	sink := NewMemorySink()
	cfg := NetworkConfig{Seed: 3, Trace: NewTracer(sink), Tags: []TagSpec{
		{TID: 1, Period: 4, StartCharged: true},
		{TID: 11, Period: 32, StartCharged: true},
	}}
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := FaultPlan{
		Fades:     &FaultFadeSpec{Burst: FaultBurst{EnterProb: 0.05, MeanSlots: 5}, DepthDB: 40},
		Brownouts: &FaultBrownoutSpec{Prob: 0.05, OffSlots: 3},
	}
	inj, err := net.AttachFaults(plan, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	fadedAt := map[int]bool{}
	for s := 1; s <= 300; s++ {
		net.Run(Time(s) * Second)
		for _, tid := range []int{1, 2, 11} {
			if inj.FadeDepthDB(tid) != 0 {
				fadedAt[tid] = true
			}
		}
	}
	faults := map[int]int{}
	cutoffOff := map[int]int{}
	for _, ev := range sink.Events() {
		switch ev.Kind {
		case obs.KindFaultInject, obs.KindFaultClear:
			faults[ev.TID]++
		case obs.KindCutoffOff:
			cutoffOff[ev.TID]++
		}
	}
	for tid := range faults {
		if tid != 0 && tid != 1 && tid != 11 {
			t.Errorf("%d fault events on TID %d, which is not deployed", faults[tid], tid)
		}
	}
	if faults[11] == 0 || cutoffOff[11] == 0 {
		t.Errorf("TID 11: %d fault events, %d cutoff_off events; want both > 0", faults[11], cutoffOff[11])
	}
	if !fadedAt[1] || !fadedAt[11] || fadedAt[2] {
		t.Errorf("fade hook answered for TIDs %v, want 1 and 11", fadedAt)
	}
}
