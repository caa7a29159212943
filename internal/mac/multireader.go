package mac

import (
	"fmt"

	"repro/internal/sim"
)

// Multi-reader spatial multiplexing — the paper's Sec. 6.3 future-work
// direction ("spatial multiplexing via multiple readers distributed
// across the BiW"). K readers each own a zone of tags and run the
// slotted protocol concurrently on the shared metal body. Acoustic
// separation between zones is imperfect: a transmission in one zone
// leaks into another with probability LeakProb per (transmission,
// foreign zone, slot), where it raises the victim reader's IQ cluster
// count exactly like a home-zone collider.

// MultiReaderConfig parameterizes the extension study.
type MultiReaderConfig struct {
	// Zones lists one workload per reader.
	Zones []Pattern
	// LeakProb is the per-transmission inter-zone leakage probability.
	LeakProb float64
	Seed     uint64
}

// zoneState is one reader's domain.
type zoneState struct {
	reader *ReaderProtocol
	tags   []*TagProtocol
	fb     Feedback
	// Stats.
	delivered int
}

// MultiReaderSim steps all zones in lockstep slots.
type MultiReaderSim struct {
	cfg   MultiReaderConfig
	rng   *sim.Rand
	zones []*zoneState
	slots int
}

// NewMultiReaderSim builds the K-zone simulator.
func NewMultiReaderSim(cfg MultiReaderConfig) (*MultiReaderSim, error) {
	if len(cfg.Zones) == 0 {
		return nil, fmt.Errorf("mac: no zones configured")
	}
	if cfg.LeakProb < 0 || cfg.LeakProb > 1 {
		return nil, fmt.Errorf("mac: leak probability %v outside [0,1]", cfg.LeakProb)
	}
	rng := sim.NewRand(cfg.Seed)
	m := &MultiReaderSim{cfg: cfg, rng: rng.Fork(0xABCD)}
	for zi, pt := range cfg.Zones {
		if err := pt.Validate(); err != nil {
			return nil, fmt.Errorf("mac: zone %d: %w", zi, err)
		}
		periods := make(map[int]Period, pt.NumTags())
		z := &zoneState{}
		for i, p := range pt.Periods {
			tid := i + 1
			periods[tid] = p
			proto, err := NewTagProtocol(p, rng.Fork(uint64(zi)<<16|uint64(tid)))
			if err != nil {
				return nil, err
			}
			z.tags = append(z.tags, proto)
		}
		reader, err := NewReaderProtocol(periods)
		if err != nil {
			return nil, err
		}
		z.reader = reader
		z.fb = reader.Reset()
		m.zones = append(m.zones, z)
	}
	return m, nil
}

// Step advances all zones by one slot, with same-slot cross-zone
// leakage.
func (m *MultiReaderSim) Step() {
	// Phase 1: every zone's tags decide on this slot.
	txByZone := make([][]int, len(m.zones))
	for zi, z := range m.zones {
		for i, t := range z.tags {
			if t.OnBeacon(z.fb) {
				txByZone[zi] = append(txByZone[zi], i+1)
			}
		}
	}
	// Phase 2: leakage and per-zone observation.
	for zi, z := range m.zones {
		foreign := 0
		for oj, txs := range txByZone {
			if oj == zi {
				continue
			}
			for range txs {
				if m.rng.Bool(m.cfg.LeakProb) {
					foreign++
				}
			}
		}
		var obs Observation
		own := txByZone[zi]
		switch {
		case len(own) == 1 && foreign == 0:
			obs.Decoded = []int{own[0]}
		case len(own)+foreign >= 2:
			// The victim reader's IQ clustering sees extra energy:
			// collision, even if only one (or zero) home tags spoke.
			obs.Collision = len(own) > 0 || foreign >= 2
			// With exactly one home transmitter the capture effect may
			// still deliver its packet; keep the pessimistic NACK path
			// by reporting the collision without a decode.
		}
		if len(obs.Decoded) == 1 {
			z.delivered++
		}
		fb, err := z.reader.EndSlot(obs)
		if err != nil {
			// Zone observations are built from this simulator's own
			// tags; an invalid tid is a programming error.
			//lint:allow panic-hygiene observations are built from this simulator's own tag ids; invalid tid is a programming bug
			panic(err)
		}
		z.fb = fb
	}
	m.slots++
}

// Run advances n slots.
func (m *MultiReaderSim) Run(n int) {
	for i := 0; i < n; i++ {
		m.Step()
	}
}

// Slots returns the number of simulated slots.
func (m *MultiReaderSim) Slots() int { return m.slots }

// TotalDelivered sums deliveries across zones.
func (m *MultiReaderSim) TotalDelivered() int {
	n := 0
	for _, z := range m.zones {
		n += z.delivered
	}
	return n
}

// Throughput returns delivered packets per slot across the whole BiW —
// the spatial-multiplexing figure of merit (a single reader is bounded
// by 1.0).
func (m *MultiReaderSim) Throughput() float64 {
	if m.slots == 0 {
		return 0
	}
	return float64(m.TotalDelivered()) / float64(m.slots)
}
