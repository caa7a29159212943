// Package dsp implements the reader's baseband signal processing
// (Sec. 6.1): the slot decoder — FM0 symbol-timing search, frame decode
// with CRC, and the amplitude-cluster collision rule of Sec. 5.3 — plus
// PSD-based SNR measurement, DC blocking, Schmitt triggering, and the
// baseband uplink and tag-side downlink waveform synthesizers the
// experiments drive them with.
package dsp

import "repro/internal/phy"

// SlotVerdict is what decoding one slot's capture yields.
type SlotVerdict struct {
	// Packet is the decoded frame, valid when Decoded is true.
	Packet  phy.ULPacket
	Decoded bool
	// Clusters is the amplitude cluster count; more than two means a
	// collision (Sec. 5.3).
	Clusters  int
	Collision bool
}

// SlotScratch is DecodeSlot's working memory: the sorted sample
// magnitudes and amplitude clusters of the collision count, and the
// chip means and hard chips of one timing phase. A caller that decodes
// slot after slot keeps one SlotScratch and passes it to every call,
// so decoding allocates nothing once the buffers have grown to the
// longest capture.
type SlotScratch struct {
	mags     []float64
	clusters []cluster
	soft     []float64
	hard     phy.Bits
}

// DecodeSlot is the reader's slot decoder. samples is one slot's
// baseband amplitude capture at samplesPerChip samples per chip of the
// burst being decoded. The collision verdict counts amplitude clusters
// with a merge radius of an eighth of the capture's min-max span; the
// frame comes from a symbol-timing search over fractional chip phases.
// It works in sc's buffers.
//
//alloc:hot per-slot uplink decode of the waveform-mode network
func DecodeSlot(samples []float64, samplesPerChip float64, sc *SlotScratch) SlotVerdict {
	var v SlotVerdict
	if len(samples) == 0 {
		return v
	}
	lo, hi := samples[0], samples[0]
	for _, s := range samples {
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	radius := (hi - lo) / 8
	if radius <= 0 {
		radius = 1e-6
	}
	v.Clusters = sc.countClusters(samples, radius, 0.04)
	v.Collision = v.Clusters > 2
	if pkt, err := sc.decodeULFromBaseband(samples, samplesPerChip); err == nil {
		v.Packet, v.Decoded = pkt, true
	}
	return v
}
