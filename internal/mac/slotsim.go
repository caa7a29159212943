package mac

import (
	"repro/internal/obs"
	"repro/internal/sim"
)

// SlotSim is the slot-granularity protocol simulator: every tick is one
// slot (1 s in the deployment), link outcomes are drawn from a
// calibrated link model, and the exact TagProtocol / ReaderProtocol
// state machines run unmodified. The convergence (Fig. 15) and
// long-running (Fig. 16) experiments execute here, where a million
// slots cost milliseconds.
type SlotSim struct {
	cfg    SlotSimConfig
	rng    *sim.Rand
	reader *ReaderProtocol
	tags   []*simTag
	fb     Feedback

	// Per-slot scratch, reused across Step calls so the steady-state
	// slot loop is allocation-free (see SlotResult for the aliasing
	// contract).
	txScratch  []*simTag
	tidScratch []int
	decScratch []int
	// slotEvents caches cfg.Trace.Wants for the slot open/close kinds,
	// read when the tracer is attached, so a tracer that mutes them
	// (chaos jobs) costs no event construction per slot.
	slotEvents bool

	Window      *WindowStats
	Convergence *ConvergenceDetector
	// TruthNonEmpty / TruthCollisions count ground-truth slot states
	// (vs the reader-observed ratios in Window).
	TruthNonEmpty   int
	TruthCollisions int
	SlotsRun        int

	// everySlot visits every tag in every slot: a beacon-loss
	// probability draws for each tag in each slot. Tests set it to run
	// the dense oracle of the sparse kernel.
	everySlot bool
	// lastJoin is the latest JoinSlot: before it, no slot is clean.
	lastJoin int

	// Steady-state fast-forward (cycle.go): noLinkLoss caches the
	// config half of Run's eligibility, cyc is the state saved at the
	// last H-boundary, and skipped counts the slots Run advanced without
	// stepping.
	noLinkLoss bool
	cyc        slotState
	skipped    int
}

type simTag struct {
	tid      int
	proto    *TagProtocol
	joinSlot int
	// The lazy counter (DESIGN.md "Sparse slot kernel"): seen is the
	// last slot whose beacon the tag has processed (or lost), and wake
	// the next slot whose beacon does more than advance its counter.
	// The beacons in between are delivered by Skip when the tag is
	// next visited.
	seen, wake int
	// Brownout state: while down, the tag is dark until downUntil.
	down      bool
	downUntil int
	// Per-tag counters.
	txCount    int
	ackCount   int
	lastTxSlot int // global slot of the most recent transmission; -1 if none
}

// SlotSimConfig parameterizes a run. Zero values mean: perfect links,
// all tags present from slot 0. The reader detects every true
// collision.
type SlotSimConfig struct {
	Pattern Pattern
	Seed    uint64
	// BeaconLossProb is the per-slot probability a tag misses the
	// beacon (per tag; nil or short slice means 0).
	BeaconLossProb []float64
	// ULDecodeFailProb is the probability a solo uplink packet fails
	// CRC at the reader (per tag).
	ULDecodeFailProb []float64
	// CaptureProb is the chance the reader still decodes one packet
	// during a collision (capture effect, Sec. 5.3).
	CaptureProb float64
	// JoinSlot defers each tag's activation (variable charging delay,
	// Sec. 5.5); nil means all join at slot 0. Convergence counts no
	// slot before the last join as clean.
	JoinSlot []int
	// NackThreshold overrides N for all tags and the reader (0 keeps
	// the default of 3). Ablation: BenchmarkExperiment/ablation-nack.
	NackThreshold int
	// DisableBeaconLossTimer removes the Sec. 5.4 refinement: a tag
	// that misses a beacon silently desynchronizes instead of
	// migrating. Ablation only.
	DisableBeaconLossTimer bool
	// DisableEmptyGate removes the Sec. 5.5 newcomer gate.
	DisableEmptyGate bool
	// DisableFutureVeto removes the Sec. 5.6 reader-side check.
	DisableFutureVeto bool
	// Trace, when set, receives slot open/close events from the
	// simulator and settle/unsettle/evict events from the reader
	// protocol. A nil tracer (the default) costs nothing. The slot
	// events borrow the simulator's scratch slices (see obs.Sink), and
	// are not built at all when the tracer mutes both kinds at the time
	// it is attached.
	Trace *obs.Tracer
	// Faults, when set, injects a deterministic fault environment into
	// every slot: beacon loss, feedback corruption, uplink fades,
	// mid-slot brownouts, reader outages and clock jitter (see
	// internal/faults for the plan compiler). Nil means no faults; the
	// random stream is then bit-identical to a fault-free build.
	Faults FaultSource
}

func (c *SlotSimConfig) beaconLoss(i int) float64 {
	if i < len(c.BeaconLossProb) {
		return c.BeaconLossProb[i]
	}
	return 0
}

func (c *SlotSimConfig) ulFail(i int) float64 {
	if i < len(c.ULDecodeFailProb) {
		return c.ULDecodeFailProb[i]
	}
	return 0
}

func (c *SlotSimConfig) joinSlot(i int) int {
	if i < len(c.JoinSlot) {
		return c.JoinSlot[i]
	}
	return 0
}

// NewSlotSim builds a simulator: the reader is provisioned with every
// tag's period, tags start in MIGRATE, and the first beacon carries
// RESET (the Fig. 15 measurement protocol). It is a build followed by
// Reset, so a fresh simulator and a pooled one rewound to the same seed
// start from the one initial state Reset writes.
func NewSlotSim(cfg SlotSimConfig) (*SlotSim, error) {
	if err := cfg.Pattern.Validate(); err != nil {
		return nil, err
	}
	s := newSlotSim(cfg)
	s.AttachObservers(cfg.Trace, cfg.Faults)
	s.Reset(cfg.Seed)
	return s, nil
}

// newSlotSim allocates a simulator for a validated pattern and sets the
// config that never changes between trials. The random streams are
// placeholders until Reset reseeds them.
func newSlotSim(cfg SlotSimConfig) *SlotSim {
	n := cfg.Pattern.NumTags()
	periods := make(map[int]Period, n)
	tags := make([]*simTag, n)
	for i, p := range cfg.Pattern.Periods {
		tid := i + 1
		periods[tid] = p
		tags[i] = &simTag{tid: tid, proto: &TagProtocol{Period: p, rng: sim.NewRand(0)}}
	}
	reader := newReaderProtocol(periods)
	reader.DisableFutureVeto = cfg.DisableFutureVeto
	s := &SlotSim{
		cfg:         cfg,
		rng:         sim.NewRand(0),
		reader:      reader,
		tags:        tags,
		txScratch:   make([]*simTag, 0, n),
		tidScratch:  make([]int, 0, n),
		decScratch:  make([]int, 0, 1),
		Window:      NewWindowStats(),
		Convergence: NewConvergenceDetector(),
		noLinkLoss:  true,
	}
	for i := range tags {
		if cfg.beaconLoss(i) > 0 {
			s.everySlot = true
		}
		if cfg.beaconLoss(i) > 0 || cfg.ulFail(i) > 0 {
			s.noLinkLoss = false
		}
	}
	return s
}

// Reset writes the simulator's initial state for the given seed in
// place, without allocating; NewSlotSim and pooled clones
// (SlotSimSnapshot) both start trials through it. The RNG fork order is
// root seeded from seed, one fork per tag in pattern order (each drawing
// the initial offset), then the simulator's own fork.
func (s *SlotSim) Reset(seed uint64) {
	s.cfg.Seed = seed
	var root sim.Rand //lint:allow rng-discipline seeded in place on the next line; avoids an allocation per reset
	root.Seed(seed)
	s.lastJoin = 0
	for i, t := range s.tags {
		t.proto.rng.ReseedFork(&root, uint64(t.tid))
		t.proto.reinit()
		if s.cfg.NackThreshold > 0 {
			t.proto.NackThreshold = s.cfg.NackThreshold
		}
		t.proto.DisableEmptyGate = s.cfg.DisableEmptyGate
		t.joinSlot = s.cfg.joinSlot(i)
		t.seen, t.wake = t.joinSlot-1, t.joinSlot
		s.lastJoin = max(s.lastJoin, t.joinSlot)
		t.down = false
		t.downUntil = 0
		t.txCount = 0
		t.ackCount = 0
		t.lastTxSlot = -1
	}
	s.rng.ReseedFork(&root, 0xC0FFEE)
	if s.cfg.NackThreshold > 0 {
		s.reader.NackThreshold = s.cfg.NackThreshold
	} else {
		s.reader.NackThreshold = DefaultNackThreshold
	}
	s.fb = s.reader.Reset()
	s.Window.Reset()
	s.Convergence.Reset()
	s.TruthNonEmpty = 0
	s.TruthCollisions = 0
	s.SlotsRun = 0
	s.cyc.drop()
	s.skipped = 0
}

// AttachObservers points the simulator (and its reader protocol) at a
// per-trial tracer and fault source. Pooled clones carry no observers
// while parked; the pool attaches the job's own pair on Acquire and
// detaches on Release so a parked clone never retains a job's sink.
func (s *SlotSim) AttachObservers(trace *obs.Tracer, faults FaultSource) {
	s.cfg.Trace = trace
	s.cfg.Faults = faults
	s.reader.Trace = trace
	s.slotEvents = wantsSlotEvents(trace)
	s.cyc.drop()
}

func wantsSlotEvents(t *obs.Tracer) bool {
	return t.Wants(obs.KindSlotOpen) || t.Wants(obs.KindSlotClose)
}

// SlotResult reports one simulated slot.
//
// Transmitters and Obs.Decoded alias per-simulator scratch that the
// next Step call overwrites — the slot loop runs allocation-free.
// Callers that need a slot's lists beyond the following Step must copy
// them.
type SlotResult struct {
	Slot         int
	Transmitters []int
	Obs          Observation
	Feedback     Feedback // broadcast at the END of this slot
}

// Step simulates one slot and returns what happened in it.
//
// The tag loop is sparse (DESIGN.md "Sparse slot kernel"): a tag is
// visited only from its wake slot on, the first slot whose beacon can
// do more than advance its counter, and is caught up with Skip on the
// way in. A slot whose beacon or faults can reach any tag visits every
// tag through the same loop.
//
// With the reader carrier dark (SlotFaults.ReaderDown) no beacon is
// broadcast, so every powered tag experiences a beacon loss (and
// migrates, per Sec. 5.4), the reader neither observes the channel nor
// advances its slot counter, and browned-out tags cannot recharge —
// their rejoin deadline slides by one slot per outage slot.
//
//alloc:hot the slot loop of every slots-engine trial; events borrow the scratch slices
func (s *SlotSim) Step() SlotResult {
	slot := s.SlotsRun
	var clean SlotFaults
	fs := &clean
	if s.cfg.Faults != nil {
		fs = s.cfg.Faults.BeginSlot(slot)
	}
	dark := fs.ReaderDown
	fb := s.fb
	if fs.ReaderReset && !dark {
		// Carrier restart with reader state loss: the recovering
		// reader opens this slot with a RESET beacon, forcing a full
		// network recontention. The slot clock is resynced so the
		// restarted reader stays in the global frame.
		fb = s.reader.Reset()
		s.reader.SyncSlot(slot)
	}
	if s.slotEvents {
		if dark {
			s.cfg.Trace.Emit(obs.Event{Kind: obs.KindSlotOpen, Slot: slot, Detail: "reader_down"})
		} else {
			s.cfg.Trace.Emit(obs.Event{Kind: obs.KindSlotOpen, Slot: slot, ACK: fb.ACK, Empty: fb.Empty})
		}
	}

	// A flipped ACK needs no visit of its own: only a tag that sent in
	// the last slot reads the flag, and such a tag wakes in this one.
	every := s.everySlot || dark || fb.Reset || fs.BeaconLoss != nil || fs.SlipSlot != nil ||
		fs.Brownout != nil
	transmitters := s.txScratch[:0]
	for i, t := range s.tags {
		if !every && slot < t.wake || slot < t.joinSlot {
			continue
		}
		if t.down {
			if dark {
				t.downUntil++ // no carrier, no harvesting
				t.wake = t.downUntil
				continue
			}
			if slot < t.downUntil {
				continue
			}
			// Recharged past HTH before this slot's beacon: the tag
			// rejoins as a newcomer with all volatile state lost.
			t.down = false
			t.proto.Rejoin()
			t.seen = slot - 1
			if s.cfg.Trace.Enabled() {
				s.cfg.Trace.Emit(obs.Event{Kind: obs.KindTagRejoin, Slot: slot, TID: t.tid,
					Period: int(t.proto.Period)})
			}
		}
		t.proto.Skip(slot - t.seen - 1)
		t.seen = slot
		lost := dark || s.rng.Bool(s.cfg.beaconLoss(i)) ||
			(i < len(fs.BeaconLoss) && fs.BeaconLoss[i]) ||
			(i < len(fs.SlipSlot) && fs.SlipSlot[i])
		if lost {
			// Without the timer refinement the tag just fails to
			// advance its counter — the silent desynchronization of
			// Sec. 5.4's analysis.
			if !s.cfg.DisableBeaconLossTimer {
				t.proto.OnBeaconLoss()
			}
		} else {
			fbi := fb
			if i < len(fs.CorruptACK) && fs.CorruptACK[i] {
				fbi.ACK = !fbi.ACK
			}
			if t.proto.OnBeacon(fbi) {
				transmitters = append(transmitters, t)
				t.txCount++
				t.lastTxSlot = slot
			}
		}
		t.wake = slot + 1 + t.proto.Quiet()
	}
	if dark {
		s.SlotsRun++
		// The outage slot still elapsed in absolute time: keep the
		// reader's clock in the global frame, so beliefs from before
		// the outage are judged against real elapsed slots once the
		// carrier returns.
		s.reader.SyncSlot(s.SlotsRun)
		if s.slotEvents {
			s.cfg.Trace.Emit(obs.Event{Kind: obs.KindSlotClose, Slot: slot, Detail: "reader_down"})
		}
		return SlotResult{Slot: slot, Feedback: s.fb}
	}

	// Mid-slot brownouts: the drain hits after the beacon, so the tag
	// took part in the slot, but its response (if any) dies on air and
	// its volatile state is gone by the time it recharges.
	if fs.Brownout != nil {
		for i, t := range s.tags {
			if i < len(fs.Brownout) && fs.Brownout[i] && !t.down && slot >= t.joinSlot {
				t.down = true
				delay := 1
				if i < len(fs.RejoinDelay) && fs.RejoinDelay[i] > 1 {
					delay = fs.RejoinDelay[i]
				}
				// Dark for delay whole slots after this one.
				t.downUntil = slot + 1 + delay
				t.wake = t.downUntil
			}
		}
	}

	var seen Observation
	s.decScratch = s.decScratch[:0]
	switch len(transmitters) {
	case 0:
	case 1:
		t := transmitters[0]
		failP := s.cfg.ulFail(t.tid - 1)
		if i := t.tid - 1; i < len(fs.ULFailProb) && fs.ULFailProb[i] > 0 {
			failP = 1 - (1-failP)*(1-fs.ULFailProb[i])
		}
		if t.down {
			failP = 1 // the packet was truncated mid-air
		}
		if !s.rng.Bool(failP) {
			s.decScratch = append(s.decScratch, t.tid)
			seen.Decoded = s.decScratch
		}
	default:
		seen.Collision = true // the IQ clustering flags every true collision
		if s.rng.Bool(s.cfg.CaptureProb) {
			// Capture: one packet survives; pick uniformly (the
			// waveform layer would pick the strongest).
			t := transmitters[s.rng.Intn(len(transmitters))]
			if !t.down {
				s.decScratch = append(s.decScratch, t.tid)
				seen.Decoded = s.decScratch
			}
		}
	}

	next, err := s.reader.EndSlot(seen)
	if err != nil {
		// The simulator reports only its own tags' ids; an invalid
		// observation here is a programming error, not bad input.
		//lint:allow panic-hygiene observations are built from this simulator's own tag ids; invalid tid is a programming bug
		panic(err)
	}
	// Tags that transmitted learn their fate from the next beacon; ACK
	// accounting here mirrors what they will see.
	if next.ACK && len(transmitters) == 1 {
		transmitters[0].ackCount++
	}

	s.Window.Observe(seen.NonEmpty(), seen.Collision)
	truthCollision := len(transmitters) > 1
	if len(transmitters) > 0 {
		s.TruthNonEmpty++
	}
	if truthCollision {
		s.TruthCollisions++
	}
	// The network has not converged while a tag has yet to join: such a
	// slot does not count as clean.
	s.Convergence.Observe(truthCollision || slot < s.lastJoin)

	s.fb = next
	s.SlotsRun++

	s.txScratch = transmitters // keep any growth for the next slot
	tids := s.tidScratch[:0]
	for _, t := range transmitters {
		tids = append(tids, t.tid)
	}
	s.tidScratch = tids
	if s.slotEvents {
		// The event borrows the scratch slices; sinks that keep events
		// copy them (obs.Sink).
		s.cfg.Trace.Emit(obs.Event{Kind: obs.KindSlotClose, Slot: slot, TIDs: tids,
			Decoded: seen.Decoded, Collision: seen.Collision, ACK: next.ACK, Empty: next.Empty})
	}
	return SlotResult{Slot: slot, Transmitters: tids, Obs: seen, Feedback: next}
}

// Run advances n slots. Without a fault source or a tracer, once the
// state provably repeats over one hyperperiod H (cycle.go), Run skips
// the whole cycles left arithmetically; every output is the same as
// stepping each slot.
func (s *SlotSim) Run(n int) {
	if !s.cycleEligible() {
		for i := 0; i < n; i++ {
			s.Step()
		}
		return
	}
	end := s.SlotsRun + n
	h := s.reader.maxP
	for s.SlotsRun < end {
		if s.SlotsRun&(h-1) == 0 {
			s.cycleBoundary(end, h)
			if s.SlotsRun == end {
				break
			}
		}
		s.Step()
	}
}

// RunUntilConverged steps until the convergence criterion fires or
// maxSlots elapse; it returns the first-convergence time in slots and
// whether it converged.
func (s *SlotSim) RunUntilConverged(maxSlots int) (int, bool) {
	for s.SlotsRun < maxSlots {
		s.Step()
		if s.Convergence.Converged() {
			return s.Convergence.ConvergenceSlot(), true
		}
	}
	return s.SlotsRun, false
}

// AllSettled reports whether every joined tag is in SETTLE. A
// browned-out tag is dark, not settled, whatever its stale state says.
func (s *SlotSim) AllSettled() bool {
	for _, t := range s.tags {
		if s.SlotsRun <= t.joinSlot || t.down || t.proto.State() != Settle {
			return false
		}
	}
	return true
}

// Assignments returns the current (period, offset) of every tag in the
// GLOBAL slot frame, so schedules of tags that joined at different
// times (or desynchronized) are directly comparable. A tag's local
// offset is translated via its most recent transmission slot; a tag
// that never transmitted reports its local offset unchanged.
func (s *SlotSim) Assignments() []Assignment {
	out := make([]Assignment, len(s.tags))
	for i, t := range s.tags {
		p := t.proto.Period
		off := t.proto.Offset()
		if t.lastTxSlot >= 0 {
			// The last transmission happened at the then-current
			// offset; if the tag has not migrated since, this is its
			// global congruence class.
			off = t.lastTxSlot % int(p)
		}
		out[i] = Assignment{Period: p, Offset: off}
	}
	return out
}
