package mac

import (
	"sync"

	"repro/internal/obs"
)

// SlotSimSnapshot is the frozen, shareable half of the slot-simulator
// snapshot/clone seam. It captures one validated SlotSimConfig —
// pattern, link probabilities, join schedule, protocol knobs — and
// hands out pooled, resettable SlotSim clones. The pattern is validated
// once; each clone's period table and tag/reader state are built once,
// and every Acquire after warm-up is a pure in-place rewind, so
// steady-state Monte Carlo trials and fleet jobs allocate nothing in
// the control plane.
//
// The contract (see DESIGN.md "Snapshot/clone"):
//
//   - Immutable per config: everything in the SlotSimConfig except
//     Seed, Trace and Faults. The snapshot's config is copied at
//     construction; callers must not mutate referenced slices after
//     NewSlotSimSnapshot.
//   - Mutable per trial: the seed (full RNG replay via SlotSim.Reset),
//     the tracer and the fault source (attached on Acquire, detached on
//     Release so a parked clone never pins a job's sink).
//
// A SlotSimSnapshot is safe for concurrent Acquire/Release from many
// goroutines; each acquired *SlotSim belongs to one goroutine at a
// time.
type SlotSimSnapshot struct {
	cfg  SlotSimConfig
	pool sync.Pool
}

// NewSlotSimSnapshot validates cfg once and returns a snapshot whose
// clones all simulate that config. The Seed, Trace and Faults fields of
// cfg are ignored — they are per-trial inputs to Acquire.
func NewSlotSimSnapshot(cfg SlotSimConfig) (*SlotSimSnapshot, error) {
	cfg.Seed = 0
	cfg.Trace = nil
	cfg.Faults = nil
	if err := cfg.Pattern.Validate(); err != nil {
		return nil, err
	}
	sn := &SlotSimSnapshot{cfg: cfg}
	sn.pool.New = func() any { return newSlotSim(sn.cfg) }
	return sn, nil
}

// Config returns the frozen per-config state (Seed/Trace/Faults zeroed).
func (sn *SlotSimSnapshot) Config() SlotSimConfig { return sn.cfg }

// Acquire returns a clone reset to the given seed with the trial's
// observers attached: bit-identical to NewSlotSim with the same config
// and seed. Pass the clone to Release when the trial ends.
//
//alloc:hot pool hit serves a recycled clone; the reset path allocates nothing
func (sn *SlotSimSnapshot) Acquire(seed uint64, trace *obs.Tracer, faults FaultSource) *SlotSim {
	s := sn.pool.Get().(*SlotSim)
	s.AttachObservers(trace, faults)
	s.Reset(seed)
	return s
}

// Release detaches the trial's observers and parks the clone for reuse.
// The caller must not touch s afterwards.
//
//alloc:hot parks the clone back into the pool without copying
func (sn *SlotSimSnapshot) Release(s *SlotSim) {
	if s == nil {
		return
	}
	s.AttachObservers(nil, nil)
	sn.pool.Put(s)
}
