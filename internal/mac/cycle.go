package mac

import (
	"slices"
	"sync"

	"repro/internal/sim"
)

// Steady-state fast-forward for SlotSim.Run (DESIGN.md "SlotSim steady
// state").
//
// A fault-free network falls into an absorbing state: every tag
// settled, every beacon an ACK, no random draw. All periods divide the
// reader's largest period H, and the absolute slot counters (the
// simulator's, the reader's, each tag's) are only ever read modulo a
// period. So once the whole state at one H-boundary equals the state
// at the boundary before it, with every slot counter moved by exactly
// H, each later step repeats the one H slots earlier and the run is
// H-periodic. Run then adds whole cycles arithmetically.

// slotState is the simulator's state at one slot: everything a Step
// reads and the counters a skip advances, without the config, the
// per-slot scratch and the observers. Run saves it at an H-boundary
// and compares the next boundary against it. The reader's tid tables and the tag records sit
// in a pooled stateTables, held only while a state is saved: dropping
// it returns them, so parked clones keep none.
type slotState struct {
	*stateTables
	slot int // SlotsRun

	rng           sim.Rand
	fb            Feedback
	truthNonEmpty int
	conv          ConvergenceDetector
	win           WindowStats
	reader        readerScalars

	// Per-cycle growth of the counters, measured by the last proof.
	dTruthNonEmpty, dWinNonEmpty int
}

type stateTables struct {
	settled   []Assignment
	settledOK []bool
	misses    []int
	tags      []tagState
}

// tagState is one tag's part of a slotState.
type tagState struct {
	sim   simTag
	proto TagProtocol // its rng pointer is the tag's own
	rng   sim.Rand

	dTx, dAck int // per-cycle growth, measured by the last proof
}

var tablePool = sync.Pool{New: func() any { return new(stateTables) }}

// drop forgets the saved state and releases its tables.
func (m *slotState) drop() {
	if m.stateTables != nil {
		tablePool.Put(m.stateTables)
		m.stateTables = nil
	}
}

// save stores the state of s; the growth of the last proof is kept.
func (m *slotState) save(s *SlotSim) {
	r := s.reader
	if m.stateTables == nil {
		t := tablePool.Get().(*stateTables)
		n := len(r.settled)
		t.settled = slices.Grow(t.settled[:0], n)[:n]
		t.settledOK = slices.Grow(t.settledOK[:0], n)[:n]
		t.misses = slices.Grow(t.misses[:0], n)[:n]
		t.tags = slices.Grow(t.tags[:0], len(s.tags))[:len(s.tags)]
		m.stateTables = t
	}
	m.slot, m.rng, m.fb, m.truthNonEmpty = s.SlotsRun, *s.rng, s.fb, s.TruthNonEmpty
	m.conv, m.win, m.reader = *s.Convergence, *s.Window, r.readerScalars
	copy(m.settled, r.settled)
	copy(m.settledOK, r.settledOK)
	copy(m.misses, r.misses)
	for i, t := range s.tags {
		ts := &m.tags[i]
		ts.sim, ts.proto, ts.rng = *t, *t.proto, *t.proto.rng
	}
}

// equalShifted reports whether s holds the saved state with every
// slot-valued field moved on by d: the reader's slot, each tag's
// counter and the detector's slot and clean-run counts (so no
// collision happened in between). The counters that only grow and that
// no step reads (transmissions, ACKs, last transmit slots, the truth
// counters and the window) are left out; their growth over the d
// slots is recorded for skipCycles. The reader's knobs are config,
// which only NewSlotSim and Reset set.
func (m *slotState) equalShifted(s *SlotSim, d int) bool {
	r := s.reader
	conv, rd := m.conv, m.reader
	conv.slots += d
	conv.cleanRun += d
	rd.slot += d
	if *s.rng != m.rng || s.fb != m.fb || *s.Convergence != conv || r.readerScalars != rd ||
		!slices.Equal(r.settled, m.settled) || !slices.Equal(r.settledOK, m.settledOK) ||
		!slices.Equal(r.misses, m.misses) {
		return false
	}
	for i, t := range s.tags {
		ts := &m.tags[i]
		rec, proto := ts.sim, ts.proto
		rec.txCount, rec.ackCount, rec.lastTxSlot = t.txCount, t.ackCount, t.lastTxSlot
		// An unjoined or dark tag skips its beacons, so its counter
		// stands still: a counter moved by d means the tag was up.
		proto.counter += d
		if *t != rec || *t.proto != proto || *t.proto.rng != ts.rng {
			return false
		}
	}
	for i, t := range s.tags {
		ts := &m.tags[i]
		ts.dTx, ts.dAck = t.txCount-ts.sim.txCount, t.ackCount-ts.sim.ackCount
	}
	m.dTruthNonEmpty = s.TruthNonEmpty - m.truthNonEmpty
	m.dWinNonEmpty = s.Window.totalNonEmpty - m.win.totalNonEmpty
	return true
}

// cycleEligible reports whether Run may skip proven cycles: no fault
// source and no tracer. A link-loss probability also rules it out, as
// it draws from the simulator's RNG in every cycle, so no two
// boundaries can ever match.
func (s *SlotSim) cycleEligible() bool {
	return s.noLinkLoss && s.cfg.Faults == nil && s.cfg.Trace == nil && s.reader.Trace == nil
}

// cycleBoundary runs at an H-boundary of an eligible Run that ends at
// end: it compares the state with the one saved H slots before and,
// once the cycle is proven, skips the whole cycles left before end. It
// then saves the (possibly advanced) state.
//
// Saving waits for the detector to fire: the state is still settling
// before that. (A skip could not cross the firing slot anyway: the
// clean run grows by h over a proven cycle, and for h < 32 a ring that
// carries holds no collision.) A state saved at the current slot
// (d == 0) is the one a skip to the end of the last Run call left, as
// Run steps on from any boundary it does not skip from; nothing has
// stepped since, so that call's proof still holds.
func (s *SlotSim) cycleBoundary(end, h int) {
	if !s.Convergence.converged {
		return
	}
	m := &s.cyc
	if d := s.SlotsRun - m.slot; m.stateTables != nil && (d == 0 || d == h && m.equalShifted(s, h)) {
		if k := (end - s.SlotsRun) / h; k > 0 && s.Window.carries(h) {
			s.skipCycles(k, h)
		}
	}
	m.save(s)
}

// skipCycles advances k whole proven cycles of h slots: every
// slot-valued field moves by k*h and every counter by k times its
// per-cycle growth. The protocol state itself does not change.
func (s *SlotSim) skipCycles(k, h int) {
	m := &s.cyc
	n := k * h
	s.SlotsRun += n
	s.skipped += n
	s.reader.slot += n
	for i, t := range s.tags {
		ts := &m.tags[i]
		t.proto.counter += n
		t.txCount += k * ts.dTx
		t.ackCount += k * ts.dAck
		if ts.dTx > 0 {
			t.lastTxSlot += n // the tag transmits in every cycle
		}
	}
	s.TruthNonEmpty += k * m.dTruthNonEmpty
	s.Convergence.slots += n
	s.Convergence.cleanRun += n
	s.Window.totalSlots += n
	s.Window.totalNonEmpty += k * m.dWinNonEmpty
}

// carries reports whether the window ring reads the same after
// h-periodic observations advance it by whole h-cycles, that is whether
// every rotation of it by h is the same ring. A power-of-two h below
// windowSlots divides it; for any larger h, the ring lands where it
// was. The ring is full: the detector has converged, which takes
// windowSlots observed slots.
func (w *WindowStats) carries(h int) bool {
	for i := h; i < windowSlots; i++ {
		if w.nonEmpty[i] != w.nonEmpty[i-h] || w.collide[i] != w.collide[i-h] {
			return false
		}
	}
	return true
}
