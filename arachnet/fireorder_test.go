package arachnet

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"testing"

	"repro/internal/obs"
)

// orderSink folds every traced event, in emission order, into one
// sha256 through the binary trace codec. At each fired engine event it
// also folds the DL pin level of every tag: two coincident edges at
// different tags trace identically, and the levels tell which of them
// ran first.
type orderSink struct {
	h   hash.Hash
	buf []byte
	n   int
	net *Network
}

func (s *orderSink) Emit(ev obs.Event) {
	s.buf = obs.AppendEvent(s.buf[:0], &ev)
	if ev.Kind == obs.KindSimEvent && s.net != nil {
		var levels uint16
		for id, dev := range s.net.byTID {
			if dev != nil && dev.MCU.In().Level() {
				levels |= 1 << id
			}
		}
		s.buf = append(s.buf, byte(levels), byte(levels>>8))
	}
	s.h.Write(s.buf)
	s.n++
}

// TestNetworkFireOrder pins the fire order of four 200 s network runs:
// the default configuration, waveform decoding, a fault plan, and a
// 2,000 bps downlink whose jitter lets one tag's edge coincide with
// another tag's earlier or later edge. Tags 2 and 3, 4 and 7, and 9
// and 10 share a rise delay to the microsecond, so their rising edges
// coincide in every run. The engine breaks such ties by scheduling
// order, so a queue that reorders two coincident events moves a
// digest even when the end-of-run stats do not.
func TestNetworkFireOrder(t *testing.T) {
	plan := FaultPlan{
		Name:      "fire-order",
		Fades:     &FaultFadeSpec{Burst: FaultBurst{EnterProb: 0.05, MeanSlots: 4}, DepthDB: 6},
		Brownouts: &FaultBrownoutSpec{Prob: 0.01, OffSlots: 5, Tags: []int{1, 2}},
	}
	for _, tc := range []struct {
		name     string
		waveform bool
		faults   bool
		dlRate   float64
		events   int
		want     string
	}{
		{"default", false, false, 0, 108441, "406edb54e2df7c0eeeca42ea81f11e070025345fa4c2846bb181a56e9b85bf4c"},
		{"waveform", true, false, 0, 108607, "a2636ea164b4945d886da94eaf2b443c74590caff58e568153754290d03977bd"},
		{"faults", false, true, 0, 108098, "bdcc9073a22fce5623d675a566a0d1d630ec2cb811b939894f9c777bfc95e54e"},
		{"fast-downlink", false, false, 2000, 98313, "7fcc7f3effb9bbcdea5fa71e0d046e4115171bbdf94fa1b91b66d947701d389f"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sink := &orderSink{h: sha256.New()}
			cfg := chargedConfig(9)
			cfg.WaveformDecode = tc.waveform
			if tc.dlRate > 0 {
				cfg.DLRate = tc.dlRate
			}
			cfg.Trace = NewTracer(sink)
			net, err := NewNetwork(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sink.net = net
			if tc.faults {
				if _, err := net.AttachFaults(plan, cfg.Seed); err != nil {
					t.Fatal(err)
				}
			}
			net.Run(200 * Second)
			if got := hex.EncodeToString(sink.h.Sum(nil)); sink.n != tc.events || got != tc.want {
				t.Errorf("trace stream: %d events, sha256 %s; want %d events, %s", sink.n, got, tc.events, tc.want)
			}
		})
	}
}
