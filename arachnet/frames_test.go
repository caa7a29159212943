package arachnet

import (
	"testing"

	"repro/internal/phy"
)

// Every one of the 16 beacon commands, modulated by the reader and fanned
// out by deliverBeacon, reaches every tag's demodulator intact, with
// the reader's default PIE jitter and without it. The beacons go out
// half a slot after the reader's own, when no other beacon is on air.
func TestBeaconCommandsReachEveryTag(t *testing.T) {
	for _, jitter := range []bool{true, false} {
		n, err := NewNetwork(chargedConfig(7))
		if err != nil {
			t.Fatal(err)
		}
		if !jitter {
			n.Reader.Cfg.SymbolJitter = 0
		}
		decoded := make(map[uint8][]phy.Command)
		for id, dev := range n.byTID {
			if dev != nil {
				tid := uint8(id)
				dev.OnBeaconDecoded = func(cmd phy.Command, _ Time) { decoded[tid] = append(decoded[tid], cmd) }
			}
		}
		for cmd := phy.Command(0); cmd < 1<<phy.CMDBits; cmd++ {
			slot := Time(cmd+2) * n.Cfg.SlotDuration
			n.Run(slot + n.Cfg.SlotDuration/2)
			clear(decoded)
			n.deliverBeacon(n.Reader.ModulateBeacon(cmd, n.Now()))
			n.Run(slot + n.Cfg.SlotDuration*9/10)
			for id, dev := range n.byTID {
				if dev == nil {
					continue
				}
				if got := decoded[uint8(id)]; len(got) != 1 || got[0] != cmd {
					t.Errorf("jitter %v, command %v: tag %d decoded %v", jitter, cmd, id, got)
				}
			}
		}
	}
}
