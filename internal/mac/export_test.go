package mac

import "fmt"

// TagStates returns the protocol state of every tag (for assertions and
// displays).
func (s *SlotSim) TagStates() []TagState {
	out := make([]TagState, len(s.tags))
	for i, t := range s.tags {
		out[i] = t.proto.State()
	}
	return out
}

// TagCounters returns (transmissions, acks) for 1-based tid.
func (s *SlotSim) TagCounters(tid int) (tx, acks int, err error) {
	if tid < 1 || tid > len(s.tags) {
		return 0, 0, fmt.Errorf("mac: tid %d out of range", tid)
	}
	t := s.tags[tid-1]
	return t.txCount, t.ackCount, nil
}

// Reader exposes the reader protocol (read-only use intended).
func (s *SlotSim) Reader() *ReaderProtocol { return s.reader }

// EvictTarget returns the TID currently being force-migrated for a
// blocked newcomer, or -1 when no eviction is in progress.
func (r *ReaderProtocol) EvictTarget() int { return r.evictTID }

// SettledAssignments returns a copy of the reader's current belief in
// ascending tid order, so the slice is identical across runs.
func (r *ReaderProtocol) SettledAssignments() []Assignment {
	out := make([]Assignment, 0, r.settledCount)
	for tid, ok := range r.settledOK {
		if ok {
			out = append(out, r.settled[tid])
		}
	}
	return out
}

// ZoneDelivered returns the clean deliveries in zone zi.
func (m *MultiReaderSim) ZoneDelivered(zi int) int { return m.zones[zi].delivered }

// newEverySlotSim builds a simulator that visits every tag in every
// slot: the dense oracle of the sparse kernel.
func newEverySlotSim(cfg SlotSimConfig) (*SlotSim, error) {
	s, err := NewSlotSim(cfg)
	if err == nil {
		s.everySlot = true
	}
	return s, err
}
