package mac

import (
	"fmt"
	"sort"

	"repro/internal/obs"
)

// ReaderProtocol is the reader-side half of the distributed slot
// allocation: it turns per-slot channel observations into the broadcast
// feedback (ACK/NACK + EMPTY) and implements the Sec. 5.6
// future-collision avoidance using its a-priori knowledge of every
// tag's period.
//
// The per-slot state (settled beliefs, miss counters) lives in dense
// tid-indexed tables sized to the provisioned population, so the
// EndSlot hot path runs without a single allocation or map operation —
// the fleet pool executes millions of slots per sweep through this
// code. Observations may still carry any tid up to MaxObservationTID
// (the reader tolerates unprovisioned tags); ids beyond the dense
// range are unprovisioned, get a plain ACK and touch no table.
type ReaderProtocol struct {
	// NackThreshold mirrors the tags' N: after this many consecutive
	// missed expected slots the reader un-settles its belief about a
	// tag.
	NackThreshold int
	// DisableFutureVeto turns off the Sec. 5.6 future-collision
	// avoidance (ablation only): every clean solo decode is ACKed.
	DisableFutureVeto bool
	// Trace, when set, receives settle / unsettle / evict events as the
	// reader's belief changes. A nil tracer costs nothing.
	Trace *obs.Tracer

	readerScalars
	maxP int // largest provisioned period

	// period maps TID to its transmission period (known to the reader
	// by provisioning, Sec. 5.5) as a dense tid-indexed table (0 = not
	// provisioned), so judgeSolo needs no map lookup.
	period []Period

	// Dense tid-indexed protocol state, length maxTID+1 (index 0
	// unused). settledOK[tid] gates settled[tid]/misses[tid].
	settled   []Assignment
	settledOK []bool
	misses    []int

	// Scratch for settledExcept, reused across slots (callers must not
	// retain the returned slices).
	exAs   []Assignment
	exTIDs []int
	// Scratch for victim selection (chooseVictim).
	vScratch []Assignment
}

// readerScalars is the reader's protocol state besides its tables: a
// comparable value, so the slot simulator's cycle skip saves and
// compares it whole.
type readerScalars struct {
	slot         int // index of the slot that is about to end
	settledCount int // number of true settledOK entries
	evictTID     int // tag being force-migrated for a blocked newcomer; -1 if none
	evictNacks   int
}

// Observation is what the reader's PHY chain reports for one slot.
type Observation struct {
	// Decoded lists the TIDs of CRC-valid uplink packets (usually one;
	// the capture effect can deliver one even during a collision).
	Decoded []int
	// Collision is the IQ-cluster inference: more than one tag
	// transmitted, regardless of decode success.
	Collision bool
}

// NonEmpty reports whether anything was on the channel.
func (o Observation) NonEmpty() bool { return len(o.Decoded) > 0 || o.Collision }

// decodedHas reports whether tid decoded this slot. Linear scan: the
// list holds at most a handful of entries, and avoiding a per-slot map
// keeps EndSlot allocation-free.
func (o Observation) decodedHas(tid int) bool {
	for _, d := range o.Decoded {
		if d == tid {
			return true
		}
	}
	return false
}

// NewReaderProtocol builds the reader state machine for the
// provisioned tag population.
func NewReaderProtocol(periods map[int]Period) (*ReaderProtocol, error) {
	// Validate in sorted tid order so the reported offender does not
	// depend on map iteration order.
	tids := make([]int, 0, len(periods))
	for tid := range periods {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		if p := periods[tid]; !ValidPeriod(p) {
			return nil, fmt.Errorf("mac: tag %d has invalid period %d", tid, p)
		}
	}
	return newReaderProtocol(periods), nil
}

// newReaderProtocol builds the reader for periods that are all valid.
func newReaderProtocol(periods map[int]Period) *ReaderProtocol {
	maxP := 1
	maxTID := 0
	for tid, p := range periods {
		maxP = max(maxP, int(p))
		maxTID = max(maxTID, tid)
	}
	r := &ReaderProtocol{
		NackThreshold: DefaultNackThreshold,
		maxP:          maxP,
		period:        make([]Period, maxTID+1),
		settled:       make([]Assignment, maxTID+1),
		settledOK:     make([]bool, maxTID+1),
		misses:        make([]int, maxTID+1),
		exAs:          make([]Assignment, 0, maxTID+1),
		exTIDs:        make([]int, 0, maxTID+1),
		vScratch:      make([]Assignment, 0, maxTID+2),
	}
	for tid, p := range periods {
		if tid > 0 { // observations never carry tid <= 0
			r.period[tid] = p
		}
	}
	r.reset()
	return r
}

// reset clears all protocol state in place; no allocation, so pooled
// simulators rewind through it between trials.
func (r *ReaderProtocol) reset() {
	r.readerScalars = readerScalars{evictTID: -1}
	for i := range r.settled {
		r.settled[i] = Assignment{}
		r.settledOK[i] = false
		r.misses[i] = 0
	}
}

// Reset clears all protocol state and returns the RESET beacon
// feedback to broadcast.
func (r *ReaderProtocol) Reset() Feedback {
	r.reset()
	return Feedback{Reset: true, Empty: true}
}

// Slot returns the index of the currently open slot.
func (r *ReaderProtocol) Slot() int { return r.slot }

// SyncSlot aligns the reader's slot counter with an external clock. The
// slot simulator uses it across carrier outages and restarts: the
// mains-powered reader keeps absolute time while unpowered tags freeze,
// so trace events from reader and simulator stay in one slot frame and
// settled beliefs are judged against real elapsed slots.
func (r *ReaderProtocol) SyncSlot(slot int) {
	if slot > r.slot {
		r.slot = slot
	}
}

// SettledCount returns how many tags the reader believes are settled.
func (r *ReaderProtocol) SettledCount() int { return r.settledCount }

// settledExcept gathers the settled assignments of all tags other than
// tid in ascending tid order, paired with their tids, into reusable
// scratch (valid until the next call). The dense walk is already
// tid-ordered, so victim selection stays deterministic without a sort.
func (r *ReaderProtocol) settledExcept(tid int) ([]Assignment, []int) {
	r.exAs = r.exAs[:0]
	r.exTIDs = r.exTIDs[:0]
	for id, ok := range r.settledOK {
		if ok && id != tid {
			r.exAs = append(r.exAs, r.settled[id])
			r.exTIDs = append(r.exTIDs, id)
		}
	}
	return r.exAs, r.exTIDs
}

// EndSlot ingests the observation for the slot that just ended and
// returns the feedback to broadcast in the beacon that opens the next
// slot. Observations carrying impossible tag ids (non-positive, or
// beyond MaxObservationTID — a corrupted decode, not a real tag) are
// rejected with a *BadTIDError before any state changes: the slot has
// not ended and the reader's belief is untouched.
func (r *ReaderProtocol) EndSlot(o Observation) (Feedback, error) {
	if err := o.validate(); err != nil {
		return Feedback{}, err
	}
	s := r.slot

	ack := false
	switch {
	case o.Collision || len(o.Decoded) > 1:
		// Definite collision: broadcast NACK (Sec. 5.3 "we set the ACK
		// flag to false, even if the reader successfully decodes a UL
		// packet").
	case len(o.Decoded) == 1:
		ack = r.judgeSolo(o.Decoded[0], s)
	}

	r.trackExpected(o, s)

	r.slot++
	return Feedback{ACK: ack, Empty: r.emptyFlag(r.slot)}, nil
}

// judgeSolo decides ACK for a cleanly decoded single packet from tid in
// slot s, applying future-collision avoidance.
func (r *ReaderProtocol) judgeSolo(tid, s int) bool {
	var p Period
	if tid < len(r.period) {
		p = r.period[tid]
	}
	if p == 0 {
		// A tag the reader was not provisioned for: tolerate it with a
		// plain ACK (it cannot be checked for future collisions).
		return true
	}
	// s mod p as a mask: p is a power of two and s >= 0.
	cand := Assignment{Period: p, Offset: s & (int(p) - 1)}

	if r.settledOK[tid] && r.settled[tid] == cand {
		// Settled tag on its usual schedule.
		r.misses[tid] = 0
		if r.evictTID == tid {
			// This tag is being evicted for a blocked newcomer: keep
			// NACKing it (Sec. 5.6) until it migrates.
			r.evictNacks++
			if r.evictNacks >= r.NackThreshold {
				r.unsettle(tid)
				r.evictTID = -1
				if r.Trace.Enabled() {
					r.Trace.Emit(obs.Event{Kind: obs.KindTagUnsettle, Slot: s, TID: tid, Detail: "evicted"})
				}
			}
			return false
		}
		return true
	}

	// New tag, or a settled tag showing up off-schedule (it migrated).
	others, otherTIDs := r.settledExcept(tid)
	if conflictsAny(cand, others) && !r.DisableFutureVeto {
		// Settling here would collide with an already-settled tag in a
		// future slot: veto.
		if FeasibleOffset(others, p) < 0 && r.evictTID < 0 {
			// No offset works at all: pick a victim to force-migrate.
			if v := r.chooseVictim(others, p); v >= 0 {
				r.evictTID = otherTIDs[v]
				r.evictNacks = 0
				if r.Trace.Enabled() {
					r.Trace.Emit(obs.Event{Kind: obs.KindTagEvict, Slot: s, TID: r.evictTID,
						Detail: fmt.Sprintf("blocked_tid=%d", tid)})
				}
			}
		}
		return false
	}
	// Viable: accept and record the belief.
	if !r.settledOK[tid] {
		r.settledOK[tid] = true
		r.settledCount++
	}
	r.settled[tid] = cand
	r.misses[tid] = 0
	if r.Trace.Enabled() {
		r.Trace.Emit(obs.Event{Kind: obs.KindTagSettle, Slot: s, TID: tid,
			Period: int(cand.Period), Offset: cand.Offset})
	}
	return true
}

// chooseVictim selects which settled tag the reader should evict (by
// successive NACKs) to make room for a blocked newcomer with period p
// (Sec. 5.6: "the reader prioritizes selecting less crowded slots").
// It returns the index into existing whose removal leaves a feasible
// offset for the newcomer, preferring the victim with the longest
// period (most flexible to relocate); -1 if no single eviction helps.
// It works on reader-owned scratch, so eviction decisions stay off the
// allocator during convergence.
func (r *ReaderProtocol) chooseVictim(existing []Assignment, p Period) int {
	if cap(r.vScratch) < len(existing)+1 {
		r.vScratch = make([]Assignment, 0, len(existing)+1)
	}
	best := -1
	for i := range existing {
		rest := r.vScratch[:0]
		rest = append(rest, existing[:i]...)
		rest = append(rest, existing[i+1:]...)
		off := FeasibleOffset(rest, p)
		if off < 0 {
			continue
		}
		// The evicted tag must itself be re-placeable afterwards.
		withNew := append(rest, Assignment{Period: p, Offset: off})
		if FeasibleOffset(withNew, existing[i].Period) < 0 {
			continue
		}
		if best < 0 || existing[i].Period > existing[best].Period {
			best = i
		}
	}
	return best
}

func conflictsAny(a Assignment, others []Assignment) bool {
	for _, o := range others {
		if a.Conflicts(o) {
			return true
		}
	}
	return false
}

func (r *ReaderProtocol) unsettle(tid int) {
	if r.settledOK[tid] {
		r.settledOK[tid] = false
		r.settled[tid] = Assignment{}
		r.misses[tid] = 0
		r.settledCount--
	}
}

// trackExpected updates the reader's per-tag belief: a settled tag that
// fails to show in its expected slot for NackThreshold consecutive
// rounds is dropped (it migrated, desynchronized or browned out). The
// ascending dense walk visits tags in tid order — the same order the
// old sorted-snapshot scan used — so the tag_unsettle trace events
// appear identically on every run.
func (r *ReaderProtocol) trackExpected(o Observation, s int) {
	for tid, ok := range r.settledOK {
		if !ok {
			continue
		}
		a := r.settled[tid]
		if !a.TransmitsAt(s) {
			continue
		}
		if o.decodedHas(tid) {
			continue // seen (judgeSolo already reset misses on ACK path)
		}
		// Missed its expected slot (whether silent or lost in a
		// collision): after N consecutive misses the belief is stale.
		r.misses[tid]++
		if r.misses[tid] >= r.NackThreshold {
			if r.evictTID == tid {
				r.evictTID = -1
			}
			r.unsettle(tid)
			if r.Trace.Enabled() {
				r.Trace.Emit(obs.Event{Kind: obs.KindTagUnsettle, Slot: s, TID: tid, Detail: "missed"})
			}
		}
	}
}

// emptyFlag computes the EMPTY prediction for the slot about to open.
// Eq. 4 phrases it as "no packet received in slot s - p_i for every
// appeared tag i"; for settled (hence periodic) tags that is exactly
// "no settled tag owns slot s", which is how we evaluate it. Naively
// replaying the receive history would also count one-off probe packets
// from migrating tags, and a single probe by a short-period tag would
// then gate newcomers off slots that are actually free — poisoning the
// very mechanism meant to integrate them (Sec. 5.5/5.6).
func (r *ReaderProtocol) emptyFlag(s int) bool {
	for tid, ok := range r.settledOK {
		if ok && r.settled[tid].TransmitsAt(s) {
			return false
		}
	}
	return true
}
