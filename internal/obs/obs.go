// Package obs is the unified observability layer: structured trace
// events and metrics shared by every simulation layer (sim engine, MAC
// state machines, energy subsystem, reader decode chain and the fleet
// pool), so single-run tracing and fleet-scale tracing speak one
// vocabulary.
//
// The design contract is zero overhead when disabled: a nil *Tracer is
// valid everywhere, Emit on it is a no-op, and hot paths guard event
// construction behind Enabled(). When enabled, events fan out to
// pluggable sinks: a StreamSink (JSONL or binary), an in-memory
// buffer, or a Metrics registry that counts them and snapshots
// deterministically (sorted by name) for reproducible reports.
// Producers read Tracer.Wants once, when a tracer is attached, and
// never build the kinds it mutes.
//
// Sinks borrow events: an event's TIDs and Decoded slices are valid only
// for the duration of Sink.Emit, because producers emit per-slot scratch
// and overwrite it on the next slot. A sink that encodes inline
// (StreamSink) or counts (Metrics) needs nothing more; a sink that
// keeps events keeps Event.Clone(), as MemorySink does.
package obs

import (
	"slices"
	"sync"
)

// Kind classifies a trace event. String-typed so JSONL traces are
// self-describing and new kinds never renumber old ones.
type Kind string

// The event vocabulary. Slot-granularity protocol events carry Slot;
// continuous-time events carry T (simulated seconds); fleet lifecycle
// events carry Job.
const (
	// KindSlotOpen marks a beacon opening a slot; ACK/Empty mirror the
	// feedback the beacon carries (for the slot that just ended).
	KindSlotOpen Kind = "slot_open"
	// KindSlotClose records the reader's verdict on a finished slot:
	// who transmitted, what decoded, collision flag, and the feedback
	// (ACK/EMPTY) broadcast in the next beacon.
	KindSlotClose Kind = "slot_close"
	// KindTagSettle records the reader accepting a tag's (period,
	// offset) schedule into its ledger.
	KindTagSettle Kind = "tag_settle"
	// KindTagUnsettle records the reader dropping a settled belief;
	// Detail says why ("missed" after NackThreshold expected-slot
	// misses, "evicted" when a forced migration completed).
	KindTagUnsettle Kind = "tag_unsettle"
	// KindTagEvict records the Sec. 5.6 victim selection: the reader
	// starts NACKing TID to make room for a blocked newcomer.
	KindTagEvict Kind = "tag_evict"
	// KindCutoffOn marks the hysteresis comparator closing: the
	// capacitor reached HTH and the MCU powers up (reactivation).
	KindCutoffOn Kind = "cutoff_on"
	// KindCutoffOff marks the comparator opening: the capacitor sagged
	// below LTH and the MCU loses power.
	KindCutoffOff Kind = "cutoff_off"
	// KindBrownout records a withdrawal that exhausted the
	// supercapacitor; Value is the requested energy in joules.
	KindBrownout Kind = "brownout"
	// KindSimEvent traces one discrete-event firing in the sim engine.
	KindSimEvent Kind = "sim_event"
	// KindDecode records a DSP reader-chain decode outcome; Detail is
	// "ok" or "crc_fail", Value the IQ cluster count.
	KindDecode Kind = "decode"
	// KindJobStart / KindJobFinish are the fleet pool's job lifecycle.
	KindJobStart  Kind = "job_start"
	KindJobFinish Kind = "job_finish"
	// KindFaultInject records the fault-injection engine firing: Detail
	// names the fault ("fade_start", "beacon_loss", "ack_corrupt",
	// "brownout", "outage_start", "jitter_slip"), TID the afflicted tag
	// (0 for reader-wide faults) and Value a fault-specific scalar
	// (fade depth in dB, brownout off-time in slots).
	KindFaultInject Kind = "fault_inject"
	// KindFaultClear records a burst fault process ending ("fade_end",
	// "outage_end"); Value is the burst length in slots.
	KindFaultClear Kind = "fault_clear"
	// KindTagRejoin records a browned-out tag recharging past HTH and
	// re-entering the protocol as a newcomer; Period carries its
	// transmission period for recovery-bound accounting.
	KindTagRejoin Kind = "tag_rejoin"
)

// Event is one structured trace record. It is a flat union: each kind
// populates the fields that apply and leaves the rest zero, so JSONL
// output stays compact via omitempty.
type Event struct {
	Kind Kind `json:"kind"`
	// Slot is the slot index for slot-granularity protocol events.
	Slot int `json:"slot,omitempty"`
	// T is the simulated time in seconds for continuous-time events.
	T float64 `json:"t,omitempty"`
	// TID is the tag the event concerns.
	TID int `json:"tid,omitempty"`
	// TIDs lists every tag that transmitted in the slot.
	TIDs []int `json:"tids,omitempty"`
	// Decoded lists the TIDs of CRC-valid decodes in the slot.
	Decoded []int `json:"decoded,omitempty"`
	// Collision is the reader's collision inference for the slot.
	Collision bool `json:"collision,omitempty"`
	// ACK / Empty mirror the beacon feedback flags.
	ACK   bool `json:"ack,omitempty"`
	Empty bool `json:"empty,omitempty"`
	// Period / Offset describe a schedule in settle/evict events.
	Period int `json:"period,omitempty"`
	Offset int `json:"offset,omitempty"`
	// Job is the fleet job index for lifecycle events.
	Job int `json:"job,omitempty"`
	// Seed is the job's resolved random seed.
	Seed uint64 `json:"seed,omitempty"`
	// Name labels engine events and fleet jobs.
	Name string `json:"name,omitempty"`
	// Value is a kind-specific scalar (volts, joules, seconds, ...).
	Value float64 `json:"value,omitempty"`
	// Detail is a kind-specific qualifier (status, reason, error).
	Detail string `json:"detail,omitempty"`
}

// Clone returns ev with its own copies of TIDs and Decoded. A nil slice
// stays nil and an empty one stays empty and non-nil.
func (ev Event) Clone() Event {
	ev.TIDs = slices.Clone(ev.TIDs)
	ev.Decoded = slices.Clone(ev.Decoded)
	return ev
}

// Sink receives emitted events. Implementations must be safe for
// concurrent use: the fleet pool emits from worker goroutines. The
// event's TIDs and Decoded slices are borrowed for the duration of
// Emit; a sink that keeps the event stores ev.Clone().
type Sink interface {
	Emit(Event)
}

// Tracer fans events out to its sinks. The zero-cost disabled state
// is a nil *Tracer: every method is nil-safe, so call sites need no
// guards beyond Enabled() around expensive event construction.
type Tracer struct {
	sinks []Sink // fixed by New, so Enabled reads it without mu
	mu    sync.Mutex
	muted map[Kind]bool
}

// New returns a tracer over the given sinks. New() with no sinks is
// disabled.
func New(sinks ...Sink) *Tracer { return &Tracer{sinks: sinks} }

// Enabled reports whether Emit would do any work. Hot paths should
// guard event construction with it.
func (t *Tracer) Enabled() bool {
	return t != nil && len(t.sinks) > 0
}

// Wants reports whether Emit would deliver an event of kind k: the
// tracer is enabled and k is not muted. Producers read it when the
// tracer is attached and skip building the kinds it mutes.
func (t *Tracer) Wants(k Kind) bool {
	if !t.Enabled() {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return !t.muted[k]
}

// Mute suppresses the given kinds (typically the very high-volume
// KindSimEvent in event-level runs). Muted events are dropped before
// any sink sees them.
func (t *Tracer) Mute(kinds ...Kind) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.muted == nil {
		t.muted = make(map[Kind]bool, len(kinds))
	}
	for _, k := range kinds {
		t.muted[k] = true
	}
}

// Emit delivers the event to every sink. Safe on a nil tracer and safe
// for concurrent use.
func (t *Tracer) Emit(ev Event) {
	if !t.Enabled() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.muted[ev.Kind] {
		return
	}
	for _, s := range t.sinks {
		s.Emit(ev)
	}
}
