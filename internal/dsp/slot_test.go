package dsp

import (
	"testing"

	"repro/internal/phy"
)

func TestDecodeSlot(t *testing.T) {
	pkt := phy.ULPacket{TID: 7, Payload: 0x2D1}
	frame, _ := pkt.Marshal()
	// Idle guard chips bracket the frame, as on the real link.
	chips := append(make(phy.Bits, 4), ulChips(frame)...)
	chips = append(chips, make(phy.Bits, 4)...)
	p := ULSynthParams{Fs: 500000, ChipRate: 375, Leakage: 0.2, Backscatter: 0.05}
	var sc SlotScratch // shared by every call: stale scratch must not leak
	v := DecodeSlot(SynthesizeULBaseband(chips, 8, p, nil), 8, &sc)
	if !v.Decoded || v.Packet != pkt {
		t.Errorf("solo slot: decoded=%v packet %+v, want %+v", v.Decoded, v.Packet, pkt)
	}
	if v.Clusters != 2 || v.Collision {
		t.Errorf("solo slot: %d clusters, collision=%v", v.Clusters, v.Collision)
	}

	// A flat capture (carrier only) has no frame and one cluster; the
	// zero span falls back to the radius floor.
	flat := make([]float64, 400)
	for i := range flat {
		flat[i] = 0.2
	}
	if v := DecodeSlot(flat, 8, &sc); v.Decoded || v.Collision || v.Clusters != 1 {
		t.Errorf("flat slot: %+v", v)
	}
	if v := DecodeSlot(nil, 8, &sc); v != (SlotVerdict{}) {
		t.Errorf("empty slot: %+v", v)
	}
	if v := DecodeSlot(SynthesizeULBaseband(chips, 8, p, nil), 8, &sc); !v.Decoded || v.Packet != pkt || v.Clusters != 2 {
		t.Errorf("solo slot after reuse: %+v", v)
	}
}
