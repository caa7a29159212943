// Package reader implements the ARACHNET reader device (Sec. 6.1): the
// slot scheduler that broadcasts PIE beacons through the BiW, collects
// backscattered uplink packets, infers collisions, and runs the
// reader-side half of the distributed slot allocation (mac package).
// The real reader's C++ signal chain is modeled by the dsp package; at
// network level its outcome is a per-transmission decode probability
// computed by the channel layer, plus the software-induced PIE timing
// jitter and processing delay the paper quantifies.
package reader

import (
	"fmt"

	"repro/internal/mac"
	"repro/internal/obs"
	"repro/internal/phy"
	"repro/internal/sim"
)

// Config holds the reader's operating point.
type Config struct {
	// SlotDuration is the slot length (1 s, Sec. 6.4).
	SlotDuration sim.Time
	// DLRate is the downlink raw chip rate (bps).
	DLRate float64
	// SymbolJitter is the software PIE modulation imprecision: each
	// edge shifts by up to this much (0.3 ms, Sec. 6.3).
	SymbolJitter sim.Time
	// ProcessingDelay is the reader software's added latency from UL
	// end to decoded packet (~58.9 ms, Sec. 6.4).
	ProcessingDelay sim.Time
	// CaptureProb is the chance one packet decodes during a collision.
	CaptureProb float64
}

// DefaultConfig returns the paper's reader settings.
func DefaultConfig() Config {
	return Config{
		SlotDuration:    sim.Second,
		DLRate:          phy.DefaultDLRate,
		SymbolJitter:    300 * sim.Microsecond,
		ProcessingDelay: 59 * sim.Millisecond,
		CaptureProb:     0.5,
	}
}

// Edge is one comparator transition of the beacon envelope, in absolute
// simulation time at the reader's TX PZT (per-tag propagation is added
// by the channel).
type Edge struct {
	At     sim.Time
	Rising bool
}

// BeaconTx describes one broadcast beacon. Edges is the reader's
// buffer, borrowed for the Broadcast call: the next beacon overwrites
// it, so a receiver that keeps the edges copies them.
type BeaconTx struct {
	Cmd   phy.Command
	Start sim.Time
	End   sim.Time
	Edges []Edge
}

// ULEvent is a tag transmission as scored by the channel layer.
type ULEvent struct {
	TID        uint8
	Start      sim.Time
	End        sim.Time
	Amplitude  float64 // backscatter amplitude at the reader (capture ranking)
	DecodeProb float64 // solo decode success probability
	Payload    uint16
	// Chips and ChipRate carry the raw FM0 stream for waveform-mode
	// decoding (nil when the probabilistic link model is in use). Chips
	// is borrowed from the transmitting tag, valid until its next
	// transmission, which cannot start before this slot ends.
	Chips    phy.Bits
	ChipRate float64
}

// SlotDecodeResult is what a waveform-mode slot decoder reports: the
// decoded packet, if any, and the collision verdict.
type SlotDecodeResult struct {
	Packet    phy.ULPacket
	HasPacket bool
	Collision bool
}

// SlotDecoder processes one slot's transmissions at waveform level
// (synthesis + DSP) instead of the probabilistic link model.
type SlotDecoder func(events []ULEvent) SlotDecodeResult

// PingPongSample is one Fig. 14 measurement.
type PingPongSample struct {
	Stage1 sim.Time // beacon transmission time
	Stage2 sim.Time // beacon end -> UL decode completion
}

// Device is the reader.
type Device struct {
	Cfg   Config
	Proto *mac.ReaderProtocol

	// Trace, when set, receives slot open/close events; assign it with
	// SetTracer so the protocol's settle/evict events share the sink.
	Trace *obs.Tracer

	engine *sim.Engine
	rng    *sim.Rand

	// Broadcast delivers a beacon to the channel.
	Broadcast func(bx BeaconTx)
	// DecodeSlot, when set, replaces the probabilistic per-event decode
	// with full waveform processing (the channel layer installs it).
	DecodeSlot SlotDecoder

	inbox        []ULEvent
	decoded      [1]int   // the slot's decoded TID, lent to the protocol as Observation.Decoded
	bx           BeaconTx // the open slot's beacon; its Edges buffer is reused every slot
	slotEndFn    func(now sim.Time)
	fb           mac.Feedback
	running      bool // set by Start, so a second Start adds no loop
	pendingReset bool

	// Stats.
	Window      *mac.WindowStats
	Convergence *mac.ConvergenceDetector
	SlotsRun    int
	Decoded     uint64
	pingPongs   obs.Recent[PingPongSample]
	payloads    map[uint8]obs.Recent[uint16]
}

// The reader keeps the last pingPongHistory ping-pong samples and the
// last payloadHistory payloads of each TID.
const (
	pingPongHistory = 100_000
	payloadHistory  = 64
)

// New builds a reader provisioned with every tag's period.
func New(engine *sim.Engine, cfg Config, periods map[int]mac.Period, rng *sim.Rand) (*Device, error) {
	proto, err := mac.NewReaderProtocol(periods)
	if err != nil {
		return nil, err
	}
	if cfg.SlotDuration <= 0 {
		return nil, fmt.Errorf("reader: non-positive slot duration")
	}
	d := &Device{
		Cfg:         cfg,
		Proto:       proto,
		engine:      engine,
		rng:         rng,
		Window:      mac.NewWindowStats(),
		Convergence: mac.NewConvergenceDetector(),
		pingPongs:   obs.NewRecent[PingPongSample](pingPongHistory),
		payloads:    make(map[uint8]obs.Recent[uint16]),
	}
	d.slotEndFn = d.endSlot // bound once: a closure per slot would allocate
	return d, nil
}

// PingPongs returns the last ping-pong samples (Fig. 14), oldest
// first. The slice is borrowed: the next decoded slot may overwrite it.
func (d *Device) PingPongs() []PingPongSample { return d.pingPongs.All() }

// Payloads returns the last decoded payloads of tid, oldest first. The
// slice is borrowed: the next decoded slot may overwrite it.
func (d *Device) Payloads(tid uint8) []uint16 {
	p := d.payloads[tid]
	return p.All()
}

// SetTracer attaches an observability tracer to the device and its
// protocol state machine. A nil tracer (the default) costs nothing.
func (d *Device) SetTracer(t *obs.Tracer) {
	d.Trace = t
	d.Proto.Trace = t
}

// Start begins slotted operation with a RESET broadcast.
func (d *Device) Start() {
	if d.running {
		return
	}
	d.running = true
	d.fb = d.Proto.Reset()
	d.engine.After(0, "reader-slot", func(now sim.Time) { d.beginSlot(now) })
}

// RequestReset makes the next beacon carry the RESET command: all
// protocol state (reader ledger, convergence detector) reinitializes
// and every tag re-randomizes — the measurement primitive behind the
// paper's first-convergence experiments (Sec. 6.4).
func (d *Device) RequestReset() { d.pendingReset = true }

// feedbackToCommand maps protocol feedback onto the 4-bit CMD field.
func feedbackToCommand(fb mac.Feedback) phy.Command {
	var cmd phy.Command
	if fb.ACK {
		cmd |= phy.CmdACK
	}
	if fb.Empty {
		cmd |= phy.CmdEMPTY
	}
	if fb.Reset {
		cmd |= phy.CmdRESET
	}
	return cmd
}

// beginSlot broadcasts the beacon that opens the slot and schedules the
// slot end.
func (d *Device) beginSlot(now sim.Time) {
	if d.pendingReset {
		d.pendingReset = false
		d.fb = d.Proto.Reset()
		d.Convergence.Reset()
	}
	cmd := feedbackToCommand(d.fb)
	if d.Trace.Enabled() {
		d.Trace.Emit(obs.Event{Kind: obs.KindSlotOpen, Slot: d.Proto.Slot(),
			T: now.Seconds(), ACK: d.fb.ACK, Empty: d.fb.Empty})
	}
	d.bx = d.ModulateBeacon(cmd, now)
	d.inbox = d.inbox[:0]
	if d.Broadcast != nil {
		d.Broadcast(d.bx)
	}
	d.engine.After(d.Cfg.SlotDuration, "reader-slot-end", d.slotEndFn)
}

// ModulateBeacon expands the command's beacon frame, most significant
// bit first, into jittered PIE envelope edges starting at start. The
// edges are written over the previous beacon's buffer, so they are
// valid until the next beacon is modulated.
//
//alloc:hot runs once per slot of every event-network run
func (d *Device) ModulateBeacon(cmd phy.Command, start sim.Time) BeaconTx {
	frame := (phy.Beacon{Cmd: cmd}).Marshal()
	chipDur := sim.FromSeconds(1 / d.Cfg.DLRate)
	jitter := func() sim.Time {
		if d.Cfg.SymbolJitter <= 0 || d.rng == nil {
			return 0
		}
		j := sim.Time(d.rng.Float64() * float64(d.Cfg.SymbolJitter) * 2)
		return j - d.Cfg.SymbolJitter
	}
	edges := d.bx.Edges[:0]
	t := start
	for i := phy.DLFrameBits - 1; i >= 0; i-- {
		high := chipDur // PIE 0: one high chip
		if frame>>i&1 == 1 {
			high = 2 * chipDur // PIE 1: two high chips
		}
		rise := t + jitter()
		fall := t + high + jitter()
		if fall <= rise {
			fall = rise + 1
		}
		edges = append(edges, Edge{At: rise, Rising: true}, Edge{At: fall, Rising: false})
		t += high + chipDur // one low separator chip
	}
	return BeaconTx{Cmd: cmd, Start: start, End: t, Edges: edges}
}

// OnTransmission is called by the channel when a tag's burst (with its
// channel-computed scores) arrives during the current slot.
func (d *Device) OnTransmission(ev ULEvent) {
	d.inbox = append(d.inbox, ev)
}

// decodedTID returns the one-TID decode list of a slot, in the reused
// buffer: the protocol and the tracer read it only during endSlot.
func (d *Device) decodedTID(tid uint8) []int {
	d.decoded[0] = int(tid)
	return d.decoded[:]
}

// endSlot scores the slot, runs the protocol, and opens the next slot.
func (d *Device) endSlot(now sim.Time) {
	var seen mac.Observation
	var decodedEv *ULEvent
	if d.DecodeSlot != nil && len(d.inbox) > 0 {
		res := d.DecodeSlot(d.inbox)
		seen.Collision = res.Collision
		if res.HasPacket {
			seen.Decoded = d.decodedTID(res.Packet.TID)
			// Bind the decode to the matching event (by TID) for the
			// latency bookkeeping; fall back to the first event.
			decodedEv = &d.inbox[0]
			for i := range d.inbox {
				if d.inbox[i].TID == res.Packet.TID {
					decodedEv = &d.inbox[i]
					break
				}
			}
			decodedEv.Payload = res.Packet.Payload
		}
	} else {
		switch len(d.inbox) {
		case 0:
		case 1:
			ev := d.inbox[0]
			if d.rng.Bool(ev.DecodeProb) {
				seen.Decoded = d.decodedTID(ev.TID)
				decodedEv = &d.inbox[0]
			}
		default:
			seen.Collision = true // the IQ clustering flags every true collision
			if d.rng.Bool(d.Cfg.CaptureProb) {
				// Capture effect: the strongest burst survives.
				best := 0
				for i, ev := range d.inbox {
					if ev.Amplitude > d.inbox[best].Amplitude {
						best = i
					}
				}
				if d.rng.Bool(d.inbox[best].DecodeProb) {
					seen.Decoded = d.decodedTID(d.inbox[best].TID)
					decodedEv = &d.inbox[best]
				}
			}
		}
	}

	if decodedEv != nil {
		d.Decoded++
		p, ok := d.payloads[decodedEv.TID]
		if !ok {
			p = obs.NewRecent[uint16](payloadHistory)
		}
		p.Add(decodedEv.Payload)
		d.payloads[decodedEv.TID] = p
		d.pingPongs.Add(PingPongSample{
			Stage1: d.bx.End - d.bx.Start,
			Stage2: decodedEv.End + d.Cfg.ProcessingDelay - d.bx.End,
		})
	}

	d.Window.Observe(seen.NonEmpty(), seen.Collision)
	d.Convergence.Observe(seen.Collision)
	slot := d.Proto.Slot()
	d.SlotsRun++
	fb, err := d.Proto.EndSlot(seen)
	if err != nil {
		// The decode chain yields 4-bit TIDs, far inside the protocol
		// bound; reaching this means a corrupted inbox, so drop the
		// observation and keep beaconing the previous feedback.
		fb = d.fb
	}
	d.fb = fb
	if d.Trace.Enabled() {
		tids := make([]int, len(d.inbox))
		for i, ev := range d.inbox {
			tids[i] = int(ev.TID)
		}
		d.Trace.Emit(obs.Event{Kind: obs.KindSlotClose, Slot: slot, T: now.Seconds(),
			TIDs: tids, Decoded: seen.Decoded, Collision: seen.Collision,
			ACK: d.fb.ACK, Empty: d.fb.Empty})
	}
	d.beginSlot(now)
}
