package mac

import "fmt"

// Fault-injection seam of the slot-level simulator. The protocol layer
// does not know how faults are generated — internal/faults compiles a
// deterministic fault plan into a FaultSource — it only knows how each
// fault manifests in a slot: a beacon that never arrives, an ACK flag
// that flips in one tag's receiver, an uplink that fades below the
// decode threshold, a tag that browns out mid-response, a reader whose
// carrier drops, a clock that slips a slot boundary.

// SlotFaults describes the fault environment of one slot. All per-tag
// slices are indexed 0-based (tag i has TID i+1); nil or short slices
// mean "no fault" for the missing tags, so the zero value is a
// fault-free slot.
type SlotFaults struct {
	// ReaderDown suppresses the slot entirely: no beacon is broadcast,
	// every powered tag experiences a beacon loss, and the reader
	// neither observes the channel nor advances its slot counter.
	ReaderDown bool
	// ReaderReset makes the recovering reader open this slot with a
	// RESET beacon (carrier restart with state loss), forcing a full
	// network recontention.
	ReaderReset bool
	// BeaconLoss marks tags whose downlink beacon is lost this slot
	// (feedback corruption severe enough to fail the decode).
	BeaconLoss []bool
	// CorruptACK marks tags whose received ACK flag is inverted this
	// slot (a single-bit downlink corruption that passes the decoder —
	// the beacon deliberately has no CRC, Sec. 4.2).
	CorruptACK []bool
	// SlipSlot marks tags whose clock jittered across the slot
	// boundary: the beacon is sampled at the wrong time and the slot is
	// lost, indistinguishable from a beacon loss at the protocol layer.
	SlipSlot []bool
	// ULFailProb adds a per-tag probability that a solo uplink fails to
	// decode this slot (transient channel fade).
	ULFailProb []float64
	// Brownout marks tags whose supercapacitor is force-drained this
	// slot. The tag heard the beacon (the drain is mid-slot) but its
	// response, if any, dies on air; all volatile protocol state is
	// lost and the tag is dark until it recharges.
	Brownout []bool
	// RejoinDelay is the per-tag number of whole slots a browned-out
	// tag stays dark before recharging past HTH and rejoining as a
	// newcomer; entries < 1 are clamped to 1. Only read for tags whose
	// Brownout entry is set.
	RejoinDelay []int
}

// FaultSource supplies the fault environment slot by slot. BeginSlot is
// called exactly once per simulated slot with monotonically increasing
// slot indices, which lets implementations advance burst processes
// deterministically. The returned SlotFaults (and its slices) may be
// the source's own scratch: it is read-only to the caller and valid
// until the next BeginSlot.
type FaultSource interface {
	BeginSlot(slot int) *SlotFaults
}

// MaxObservationTID bounds the tag ids EndSlot accepts in an
// Observation. The hardware TID field is 4 bits (phy.MaxTags), but the
// simulator allows larger synthetic populations; the bound exists to
// reject garbage from corrupted decodes, not to constrain experiments.
const MaxObservationTID = 1 << 16

// BadTIDError reports an Observation carrying an impossible tag id —
// the typed error EndSlot returns instead of trusting the caller.
type BadTIDError struct {
	TID int
}

func (e *BadTIDError) Error() string {
	return fmt.Sprintf("mac: observation tid %d out of range [1, %d]", e.TID, MaxObservationTID)
}

// validate rejects observations whose decoded tag ids cannot have come
// from a real decode chain.
func (o Observation) validate() error {
	for _, tid := range o.Decoded {
		if tid < 1 || tid > MaxObservationTID {
			return &BadTIDError{TID: tid}
		}
	}
	return nil
}
