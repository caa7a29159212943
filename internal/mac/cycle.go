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

// cycleMark is the simulator state at one H-boundary (SlotsRun a
// multiple of H), kept to prove that the next boundary repeats it.
// It is valid while it holds tables.
type cycleMark struct {
	*cycleTables
	// proven: the state at slot repeated the boundary H slots before.
	proven bool
	slot   int // SlotsRun when marked

	rng             sim.Rand
	fb              Feedback
	truthNonEmpty   int
	truthCollisions int
	conv            ConvergenceDetector

	winLen, winPos, winSlots, winNonEmpty, winCollision int

	readerSlot, readerNack, settledCount, evictTID, evictNacks int

	futureVeto bool

	// Per-cycle growth of the counters, measured by the last proof.
	dTruthNonEmpty, dWinNonEmpty int
}

// cycleTables is the per-tag and per-tid half of a mark. A simulator
// holds one only while it marks a settled run; dropping the mark
// returns it to tablePool, so parked clones keep none.
type cycleTables struct {
	settled   []Assignment
	settledOK []bool
	misses    []int
	appeared  []bool
	tags      []tagMark
}

var tablePool = sync.Pool{New: func() any { return new(cycleTables) }}

// drop invalidates the mark and releases its tables.
func (m *cycleMark) drop() {
	m.proven = false
	if m.cycleTables != nil {
		tablePool.Put(m.cycleTables)
		m.cycleTables = nil
	}
}

type tagMark struct {
	proto TagProtocol // value copy; its rng pointer is the tag's own
	rng   sim.Rand

	txCount, ackCount, lastTxSlot int
	dTx, dAck                     int
}

// cycleEligible reports whether Run may skip proven cycles: no fault
// source and no tracer. A link-loss probability also rules it out, as
// it draws from the simulator's RNG in every cycle, so no two
// boundaries can ever match.
func (s *SlotSim) cycleEligible() bool {
	return s.noLinkLoss && s.cfg.Faults == nil && s.cfg.Trace == nil && s.reader.Trace == nil
}

// cycleBoundary runs at an H-boundary of an eligible Run that ends at
// end: it checks the state against the mark and, once the cycle is
// proven, skips the whole cycles left before end. It then marks the
// (possibly advanced) state.
func (s *SlotSim) cycleBoundary(end, h int) {
	if !s.Convergence.converged {
		return // neither a proof nor the first mark of one
	}
	m := &s.cyc
	d := s.SlotsRun - m.slot
	// d == h proves the cycle afresh; d == 0 resumes a proof kept from
	// an earlier Run call that stopped on this boundary.
	proven := m.cycleTables != nil && (d == h || d == 0 && m.proven) && s.repeatsMark(d)
	if proven {
		if k := (end - s.SlotsRun) / h; k > 0 && s.Window.carries(h) {
			s.skipCycles(k, h)
		}
	}
	s.markCycle()
	m.proven = proven
}

// repeatsMark reports whether the current state equals the mark with
// every slot-valued field moved by d (the detector converged at both:
// only converged states are marked). With d > 0 it records the
// per-cycle counter growth.
func (s *SlotSim) repeatsMark(d int) bool {
	m := &s.cyc
	if *s.rng != m.rng || s.fb != m.fb || s.TruthCollisions != m.truthCollisions {
		return false
	}
	c := *s.Convergence
	c.slots -= d
	c.cleanRun -= d // unchanged collision count: no reset in between
	if c != m.conv {
		return false
	}
	w := s.Window
	if len(w.nonEmpty) != w.Window || w.Window != m.winLen || w.totalSlots-d != m.winSlots ||
		w.totalCollision != m.winCollision || w.pos != (m.winPos+d)%w.Window {
		return false
	}
	r := s.reader
	if r.slot-d != m.readerSlot || r.NackThreshold != m.readerNack || r.DisableFutureVeto != m.futureVeto ||
		r.settledCount != m.settledCount || r.evictTID != m.evictTID || r.evictNacks != m.evictNacks ||
		len(r.appearedHi) != 0 || !slices.Equal(r.settledOK, m.settledOK) ||
		!slices.Equal(r.settled, m.settled) || !slices.Equal(r.misses, m.misses) ||
		!slices.Equal(r.appeared, m.appeared) {
		return false
	}
	for i, t := range s.tags {
		tm := &m.tags[i]
		p := *t.proto
		p.counter -= d
		if p != tm.proto || *t.proto.rng != tm.rng || t.down || t.joinSlot > m.slot ||
			t.lastTxSlot != tm.lastTxSlot && t.lastTxSlot-d != tm.lastTxSlot {
			return false
		}
		if d == 0 && (t.txCount != tm.txCount || t.ackCount != tm.ackCount) {
			return false
		}
	}
	if d == 0 {
		return s.TruthNonEmpty == m.truthNonEmpty && w.totalNonEmpty == m.winNonEmpty
	}
	for i, t := range s.tags {
		tm := &m.tags[i]
		tm.dTx = t.txCount - tm.txCount
		tm.dAck = t.ackCount - tm.ackCount
	}
	m.dTruthNonEmpty = s.TruthNonEmpty - m.truthNonEmpty
	m.dWinNonEmpty = w.totalNonEmpty - m.winNonEmpty
	return true
}

// markCycle records the current state as the mark; the per-cycle
// deltas of the last proof are kept.
func (s *SlotSim) markCycle() {
	m := &s.cyc
	r := s.reader
	if m.cycleTables == nil {
		t := tablePool.Get().(*cycleTables)
		n := len(r.settled)
		t.settled = slices.Grow(t.settled[:0], n)[:n]
		t.settledOK = slices.Grow(t.settledOK[:0], n)[:n]
		t.misses = slices.Grow(t.misses[:0], n)[:n]
		t.appeared = slices.Grow(t.appeared[:0], n)[:n]
		t.tags = slices.Grow(t.tags[:0], len(s.tags))[:len(s.tags)]
		m.cycleTables = t
	}
	m.slot = s.SlotsRun
	m.rng = *s.rng
	m.fb = s.fb
	m.truthNonEmpty = s.TruthNonEmpty
	m.truthCollisions = s.TruthCollisions
	m.conv = *s.Convergence
	w := s.Window
	m.winLen, m.winPos, m.winSlots = w.Window, w.pos, w.totalSlots
	m.winNonEmpty, m.winCollision = w.totalNonEmpty, w.totalCollision
	m.readerSlot, m.readerNack, m.futureVeto = r.slot, r.NackThreshold, r.DisableFutureVeto
	m.settledCount, m.evictTID, m.evictNacks = r.settledCount, r.evictTID, r.evictNacks
	copy(m.settled, r.settled)
	copy(m.settledOK, r.settledOK)
	copy(m.misses, r.misses)
	copy(m.appeared, r.appeared)
	for i, t := range s.tags {
		tm := &m.tags[i]
		tm.proto = *t.proto
		tm.rng = *t.proto.rng
		tm.txCount, tm.ackCount, tm.lastTxSlot = t.txCount, t.ackCount, t.lastTxSlot
	}
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
		tm := &m.tags[i]
		t.proto.counter += n
		t.txCount += k * tm.dTx
		t.ackCount += k * tm.dAck
		if tm.dTx > 0 {
			t.lastTxSlot += n // the tag transmits in every cycle
		}
	}
	s.TruthNonEmpty += k * m.dTruthNonEmpty
	s.Convergence.slots += n
	s.Convergence.cleanRun += n
	w := s.Window
	w.totalSlots += n
	w.totalNonEmpty += k * m.dWinNonEmpty
	w.pos = (w.pos + n) % w.Window
}

// carries reports whether the sliding window's ring reads the same
// after h-periodic observations advance it by whole h-cycles: it must
// be full, and either h is a multiple of its length (the ring lands
// where it was) or its length is a multiple of h and its contents are
// h-periodic (every rotation by h is the same ring).
func (w *WindowStats) carries(h int) bool {
	if len(w.nonEmpty) != w.Window || w.filled != w.Window {
		return false
	}
	if h%w.Window == 0 {
		return true
	}
	if w.Window%h != 0 {
		return false
	}
	for i := h; i < w.Window; i++ {
		if w.nonEmpty[i] != w.nonEmpty[i-h] || w.collide[i] != w.collide[i-h] {
			return false
		}
	}
	return true
}
