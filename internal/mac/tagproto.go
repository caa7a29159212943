package mac

import (
	"fmt"

	"repro/internal/sim"
)

// TagState is the protocol state of Fig. 7.
type TagState int

const (
	// Migrate: probing for a collision-free slot with random offsets.
	Migrate TagState = iota
	// Settle: holding a seemingly collision-free offset.
	Settle
)

func (s TagState) String() string {
	switch s {
	case Migrate:
		return "MIGRATE"
	case Settle:
		return "SETTLE"
	default:
		return fmt.Sprintf("TagState(%d)", int(s))
	}
}

// DefaultNackThreshold is N in Fig. 7: consecutive NACKs a settled tag
// tolerates before migrating.
const DefaultNackThreshold = 3

// Feedback is the protocol-relevant content of one received beacon.
type Feedback struct {
	ACK   bool // uplink in the previous slot acknowledged
	Empty bool // reader predicts the current slot unoccupied
	Reset bool // reinitialize protocol state
}

// TagProtocol is the distributed slot-allocation state machine run by
// each tag. It is pure: inputs are beacon events and beacon-loss
// timeouts, the output is the transmit decision for the slot that just
// opened. The enclosing firmware owns timers and radios.
type TagProtocol struct {
	// Period is this tag's transmission period (known a priori from its
	// monitoring task).
	Period Period
	// NackThreshold is N.
	NackThreshold int
	// DisableEmptyGate turns off the Sec. 5.5 late-arrival gate
	// (ablation only).
	DisableEmptyGate bool

	rng *sim.Rand

	state       TagState
	offset      int
	counter     int // local slot index s_i
	nacks       int // consecutive NACK count c_i
	transmitted bool
	newcomer    bool // never ACKed since (re)joining: EMPTY-gated
	// Stats.
	migrations int
}

// NewTagProtocol returns a tag protocol that starts the way a
// power-cycled tag rejoins (Rejoin): MIGRATE with a random offset, as a
// "newcomer". The Sec. 5.5 EMPTY gate applies to its transmissions
// until it either receives its first ACK (it has integrated) or
// observes a RESET (the whole network is recontending, so the gate is
// moot).
func NewTagProtocol(p Period, rng *sim.Rand) (*TagProtocol, error) {
	if !ValidPeriod(p) {
		return nil, fmt.Errorf("mac: invalid period %d", p)
	}
	if rng == nil {
		return nil, fmt.Errorf("mac: TagProtocol needs a random source")
	}
	t := &TagProtocol{Period: p, rng: rng}
	t.reinit()
	return t, nil
}

// reinit rewinds the protocol to its NewTagProtocol state: default N, no
// migrations, then a Rejoin from the (externally reseeded) rng. Pooled
// simulators use it between trials so a reset tag is bit-identical to a
// freshly constructed one.
func (t *TagProtocol) reinit() {
	t.NackThreshold = DefaultNackThreshold
	t.migrations = 0
	t.Rejoin()
}

// State returns the protocol state.
func (t *TagProtocol) State() TagState { return t.state }

// Offset returns the current slot offset a_i.
func (t *TagProtocol) Offset() int { return t.offset }

// Counter returns the local slot index s_i.
func (t *TagProtocol) Counter() int { return t.counter }

// Migrations returns how many times the tag re-randomized its offset.
func (t *TagProtocol) Migrations() int { return t.migrations }

// Newcomer reports whether the tag is still EMPTY-gated.
func (t *TagProtocol) Newcomer() bool { return t.newcomer }

func (t *TagProtocol) migrate() {
	t.state = Migrate
	t.offset = t.rng.Intn(int(t.Period))
	t.nacks = 0
	t.migrations++
}

// OnBeacon processes one received beacon and returns whether the tag
// should transmit in the slot the beacon just opened.
//
// Ordering per Sec. 5.3: the feedback applies to the slot that just
// ended and only tags that transmitted there react to ACK/NACK; then
// the local counter advances and the transmit rule s mod p == a decides
// this slot, with newcomers additionally gated by the EMPTY flag.
func (t *TagProtocol) OnBeacon(fb Feedback) bool {
	if fb.Reset {
		t.ResetState()
		// Fall through: the tag may transmit right away if gated in.
	} else if t.transmitted {
		if fb.ACK {
			t.state = Settle
			t.nacks = 0
			t.newcomer = false
		} else {
			switch t.state {
			case Migrate:
				t.migrate()
			case Settle:
				t.nacks++
				if t.nacks >= t.NackThreshold {
					t.migrate()
				}
			}
		}
	}
	t.transmitted = false
	t.counter++
	// s mod p == a as a mask (p is a power of two). The counter is
	// never negative here: ResetState's -1 was just incremented to 0.
	if t.counter&(int(t.Period)-1) != t.offset {
		return false
	}
	if t.newcomer && !fb.Empty && !t.DisableEmptyGate {
		// Late-arriving tags may only probe advertised-empty slots
		// (Sec. 5.5). An occupied slot is as good as a NACK: re-draw
		// the offset so the search keeps moving instead of waiting
		// forever on a taken slot.
		t.migrate()
		return false
	}
	t.transmitted = true
	return true
}

// OnBeaconLoss is the Sec. 5.4 refinement: a tag whose beacon timer
// expires re-enters MIGRATE immediately instead of waiting to collide.
// The local counter does not advance — that is the desynchronization.
func (t *TagProtocol) OnBeaconLoss() {
	t.transmitted = false
	t.migrate()
}

// Rejoin reinitializes the protocol after a power cycle: the tag lost
// all volatile state while the cutoff was open, so it comes back as a
// late arrival — MIGRATE, random offset, EMPTY-gated until it either
// earns an ACK or sees a RESET.
func (t *TagProtocol) Rejoin() {
	t.state = Migrate
	t.offset = t.rng.Intn(int(t.Period))
	t.counter = 0
	t.nacks = 0
	t.transmitted = false
	t.newcomer = true
}

// ResetState reinitializes the protocol (RESET command): back to
// MIGRATE with a fresh random offset. A RESET synchronizes the whole
// population, so the tag is no longer a "late arrival": it contends
// freely like everyone else (the EMPTY gate of Sec. 5.5 applies only to
// tags that power on into an already-running network).
func (t *TagProtocol) ResetState() {
	t.state = Migrate
	t.offset = t.rng.Intn(int(t.Period))
	t.counter = -1 // advances to 0 in the beacon that carried RESET
	t.nacks = 0
	t.transmitted = false
	t.newcomer = false
	t.migrations = 0
}
