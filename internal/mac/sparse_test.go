package mac

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// everyFault is a FaultSource that fires every fault kind from its own
// random stream: beacon losses, flipped ACKs, clock slips, uplink fades
// and brownouts on one random tag at a time, and reader outages of 1-20
// slots, half of which end in a RESET beacon. Two sources built with
// the same seed fire the same faults. It reuses its buffers, so a slot
// allocates nothing.
type everyFault struct {
	rng                        sim.Rand
	fs                         SlotFaults
	loss, corrupt, slip, brown []bool
	ulFail                     []float64
	rejoin                     []int
	dark                       int // outage slots left
	reset                      bool
}

func newEveryFault(seed uint64, tags int) *everyFault {
	f := &everyFault{loss: make([]bool, tags), corrupt: make([]bool, tags), slip: make([]bool, tags),
		brown: make([]bool, tags), ulFail: make([]float64, tags), rejoin: make([]int, tags)}
	f.rewind(seed)
	return f
}

// rewind restarts the fault stream from seed.
func (f *everyFault) rewind(seed uint64) {
	f.rng.Seed(seed)
	f.dark, f.reset = 0, false
}

// hit returns buf with one random entry set to v, with probability p,
// else nil.
func hit[T any](f *everyFault, buf []T, p float64, v T) []T {
	if !f.rng.Bool(p) {
		return nil
	}
	clear(buf)
	buf[f.rng.Intn(len(buf))] = v
	return buf
}

func (f *everyFault) BeginSlot(slot int) *SlotFaults {
	f.fs = SlotFaults{}
	if f.dark > 0 {
		f.dark--
		f.fs.ReaderDown = true
	} else if f.reset {
		f.reset = false
		f.fs.ReaderReset = true
	} else if f.rng.Bool(0.004) {
		f.dark = 1 + f.rng.Intn(20)
		f.reset = f.rng.Bool(0.5)
	}
	// Per-tag faults also fire while the reader is dark, where the
	// simulator must ignore them.
	f.fs.BeaconLoss = hit(f, f.loss, 0.02, true)
	f.fs.CorruptACK = hit(f, f.corrupt, 0.02, true)
	f.fs.SlipSlot = hit(f, f.slip, 0.01, true)
	f.fs.ULFailProb = hit(f, f.ulFail, 0.05, 0.5)
	if f.fs.Brownout = hit(f, f.brown, 0.005, true); f.fs.Brownout != nil {
		for i := range f.rejoin {
			f.rejoin[i] = f.rng.Intn(12)
		}
		f.fs.RejoinDelay = f.rejoin
	}
	return &f.fs
}

// checkOwners fails unless the reader's owners table is exactly its
// settled schedules by residue (a stale or extra bit would only cost
// time, as every candidate is confirmed, so nothing else would notice)
// and dueAt lists the tags a dense scan finds for the next 128 slots.
func checkOwners(t *testing.T, what string, r *ReaderProtocol) {
	t.Helper()
	want := make([]uint64, len(r.owners))
	for tid, ok := range r.settledOK {
		if !ok {
			continue
		}
		for res := 0; res < r.span; res++ {
			if (res^r.settled[tid].Offset)&(min(int(r.settled[tid].Period), r.span)-1) == 0 {
				want[res*r.words+tid/64] |= 1 << (tid % 64)
			}
		}
	}
	if !slices.Equal(r.owners, want) {
		t.Fatalf("%s: owners %x, settled schedules give %x", what, r.owners, want)
	}
	for s := r.slot; s < r.slot+2*ownerSpan; s++ {
		var dense []int
		for tid, ok := range r.settledOK {
			if ok && r.settled[tid].TransmitsAt(s) {
				dense = append(dense, tid)
			}
		}
		if got := r.dueAt(s); !slices.Equal(got, dense) {
			t.Fatalf("%s: due at slot %d %v, settled schedules give %v", what, s, got, dense)
		}
	}
}

func sameSlot(a, b SlotResult) bool {
	return a.Slot == b.Slot && a.Feedback == b.Feedback && a.Obs.Collision == b.Obs.Collision &&
		slices.Equal(a.Transmitters, b.Transmitters) && slices.Equal(a.Obs.Decoded, b.Obs.Decoded)
}

// TestSparseKernelMatchesEverySlot is the lockstep oracle of the sparse
// slot kernel: on every Table 3 pattern and one with periods wider
// than the reader's owners table, seeds 1-20, fault-free,
// with late joins and under everyFault (with the beacon-loss timer off
// on every fifth seed), a sparse simulator and one that visits every
// tag in every slot return the same SlotResult in each slot and hold
// the same synced state every 97 slots. Two faulted seeds per pattern
// also compare the full trace streams.
func TestSparseKernelMatchesEverySlot(t *testing.T) {
	const slots = 1_500
	lazy := 0 // tag-slots the sparse simulator did not visit
	// wide has periods beyond the reader's 64-residue owners table.
	wide := Pattern{Name: "wide", Periods: []Period{4, 8, 16, 128, 256, 256, 1 << 12}}
	for _, pt := range append(Table3Patterns(), wide) {
		n := pt.NumTags()
		join := make([]int, n)
		for i := range join {
			join[i] = 37 * (i % 4) * (i % 3)
		}
		for seed := uint64(1); seed <= 20; seed++ {
			for _, variant := range []string{"clean", "late-join", "faults"} {
				name := fmt.Sprintf("%s seed %d %s", pt.Name, seed, variant)
				cfgs := [2]SlotSimConfig{}
				var sinks [2]*obs.MemorySink
				for k := range cfgs {
					cfg := SlotSimConfig{Pattern: pt, Seed: seed}
					switch variant {
					case "late-join":
						cfg.JoinSlot = join
					case "faults":
						cfg.Faults = newEveryFault(seed, n)
						cfg.DisableBeaconLossTimer = seed%5 == 0
						if seed <= 2 {
							sinks[k] = obs.NewMemorySink()
							cfg.Trace = obs.New(sinks[k])
						}
					}
					cfgs[k] = cfg
				}
				sparse, err := NewSlotSim(cfgs[0])
				if err != nil {
					t.Fatal(err)
				}
				every, err := newEverySlotSim(cfgs[1])
				if err != nil {
					t.Fatal(err)
				}
				for slot := 0; slot < slots; slot++ {
					if a, b := sparse.Step(), every.Step(); !sameSlot(a, b) {
						t.Fatalf("%s slot %d: sparse %+v, every slot %+v", name, slot, a, b)
					}
					for _, tg := range sparse.tags {
						if tg.seen < slot {
							lazy++
						}
					}
					if slot%97 == 96 {
						sameSim(t, fmt.Sprintf("%s @%d", name, slot+1), sparse, every)
						checkOwners(t, name, sparse.reader)
					}
				}
				if sinks[0] != nil && !reflect.DeepEqual(sinks[0].Events(), sinks[1].Events()) {
					t.Fatalf("%s: trace streams differ", name)
				}
			}
		}
	}
	if lazy == 0 {
		t.Fatal("the sparse simulator visited every tag in every slot")
	}
}
