package faults

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/mac"
	"repro/internal/obs"
)

// Resettle tracks one browned-out tag's road back: the slot it went
// dark and the slot the reader re-accepted its schedule. Periods
// expresses the rejoin->resettle latency in units of the tag's own
// period, the natural recovery bound (a tag gets roughly one
// contention opportunity per period).
type Resettle struct {
	TID          int
	BrownoutSlot int
	ResettleSlot int // -1 while unrecovered
	Periods      float64
}

// RecoveryReport aggregates the robustness metrics the chaos sweeps
// report, computed purely from an obs event stream (Recovery, Analyze).
type RecoveryReport struct {
	// Slots is the trace horizon (highest slot seen + 1).
	Slots int
	// Injected is the fault census keyed "kind:detail".
	Injected map[string]int
	// LastFaultSlot is the slot of the final injected fault (-1 if none).
	LastFaultSlot int

	// Settles / Unsettles / Evictions count ledger transitions.
	Settles   int
	Unsettles int
	Evictions int
	// SettledChurn counts every change to the settled set (settles of
	// new tids, re-settles to a different schedule, unsettles) — the
	// paper-style stability metric under fault pressure.
	SettledChurn int
	// FinalSettled is the settled-set size at end of trace.
	FinalSettled int
	// DuplicateSlotViolations counts settle events whose schedule
	// conflicted with an already-settled other tag — zero when the
	// no-two-settled-tags-share-a-slot invariant held throughout.
	DuplicateSlotViolations int
	// ReconvergeSlots is the time-to-reconverge: slots from the last
	// injected fault to the last settled-set change (0 when the set was
	// already stable when the final fault hit).
	ReconvergeSlots int

	// Brownouts / Rejoins count the tag power-cycle path.
	Brownouts int
	Rejoins   int
	// Resettles tracks every brownout->rejoin->resettle arc.
	Resettles []Resettle
	// MaxResettlePeriods is the worst rejoin->resettle latency in
	// periods; Unrecovered counts tags still dark or unsettled at end.
	MaxResettlePeriods float64
	Unrecovered        int
}

// Recovery folds an obs event stream into a RecoveryReport one event
// at a time, so a chaos run needs no event buffer: it is an obs.Sink,
// and a tracer that mutes the kinds it ignores feeds it only fault,
// rejoin and ledger events. The stream is what a chaos run emits:
// fault_inject/fault_clear from the Injector, tag_settle /
// tag_unsettle / tag_evict from the reader protocol, tag_rejoin from
// the simulator. Build one with NewRecovery.
type Recovery struct {
	mu sync.Mutex
	// rep holds the running counters; rep.Resettles the closed arcs.
	rep        RecoveryReport
	settled    map[int]mac.Assignment
	open       map[int]arc // in-flight brownout arcs per tid
	lastChange int
}

// arc is one brownout whose tag has not re-settled yet.
type arc struct {
	brownoutSlot int
	rejoinSlot   int // -1 until rejoined
	period       int
}

// NewRecovery returns an empty folder.
func NewRecovery() *Recovery {
	return &Recovery{
		rep:        RecoveryReport{Injected: make(map[string]int), LastFaultSlot: -1},
		settled:    make(map[int]mac.Assignment),
		open:       make(map[int]arc),
		lastChange: -1,
	}
}

// Emit implements obs.Sink.
func (r *Recovery) Emit(ev obs.Event) { r.Observe(ev) }

// Observe folds one event into the running analysis.
func (r *Recovery) Observe(ev obs.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := &r.rep
	if ev.Slot >= rep.Slots {
		rep.Slots = ev.Slot + 1
	}
	switch ev.Kind {
	case obs.KindFaultInject:
		rep.Injected[censusKey(ev.Kind, ev.Detail)]++
		rep.LastFaultSlot = ev.Slot
		if ev.Detail == "reader_reset" && len(r.settled) > 0 {
			// The restarted reader lost its ledger; every belief
			// vanishing at once is settled-set churn.
			rep.SettledChurn += len(r.settled)
			clear(r.settled)
			r.lastChange = ev.Slot
		}
		if ev.Detail == "brownout" {
			rep.Brownouts++
			// A re-brownout before resettling restarts the arc; the
			// abandoned one stays unrecovered only if the trace ends
			// here, which Report handles.
			r.open[ev.TID] = arc{brownoutSlot: ev.Slot, rejoinSlot: -1}
		}
	case obs.KindFaultClear:
		rep.Injected[censusKey(ev.Kind, ev.Detail)]++
	case obs.KindTagRejoin:
		rep.Rejoins++
		if a, ok := r.open[ev.TID]; ok && a.rejoinSlot < 0 {
			a.rejoinSlot = ev.Slot
			a.period = ev.Period
			r.open[ev.TID] = a
		}
	case obs.KindTagSettle:
		rep.Settles++
		cand := mac.Assignment{Period: mac.Period(ev.Period), Offset: ev.Offset}
		// The same tid re-settling replaces its old belief before the
		// conflict check — only distinct tags sharing a slot violate.
		prev, had := r.settled[ev.TID]
		delete(r.settled, ev.TID)
		for _, other := range r.settled {
			if cand.Conflicts(other) {
				rep.DuplicateSlotViolations++
				break
			}
		}
		r.settled[ev.TID] = cand
		if !had || prev != cand {
			rep.SettledChurn++
			r.lastChange = ev.Slot
		}
		if a, ok := r.open[ev.TID]; ok && a.rejoinSlot >= 0 {
			res := Resettle{TID: ev.TID, BrownoutSlot: a.brownoutSlot, ResettleSlot: ev.Slot}
			if a.period > 0 {
				res.Periods = float64(ev.Slot-a.rejoinSlot) / float64(a.period)
			}
			rep.Resettles = append(rep.Resettles, res)
			if res.Periods > rep.MaxResettlePeriods {
				rep.MaxResettlePeriods = res.Periods
			}
			delete(r.open, ev.TID)
		}
	case obs.KindTagUnsettle:
		rep.Unsettles++
		if _, had := r.settled[ev.TID]; had {
			delete(r.settled, ev.TID)
			rep.SettledChurn++
			r.lastChange = ev.Slot
		}
	case obs.KindTagEvict:
		rep.Evictions++
	}
}

// Report returns the metrics of the events folded so far, as if the
// trace ended here. It does not change the folder: calling it twice
// gives equal reports, and folding may continue afterwards.
func (r *Recovery) Report() RecoveryReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := r.rep
	rep.Injected = maps.Clone(r.rep.Injected)
	rep.Resettles = slices.Clone(r.rep.Resettles)
	rep.FinalSettled = len(r.settled)
	if rep.LastFaultSlot >= 0 && r.lastChange > rep.LastFaultSlot {
		rep.ReconvergeSlots = r.lastChange - rep.LastFaultSlot
	}
	// Arcs still open at end of trace never recovered.
	for tid, a := range r.open {
		rep.Unrecovered++
		rep.Resettles = append(rep.Resettles, Resettle{TID: tid,
			BrownoutSlot: a.brownoutSlot, ResettleSlot: -1})
	}
	sort.Slice(rep.Resettles, func(i, j int) bool {
		if rep.Resettles[i].BrownoutSlot != rep.Resettles[j].BrownoutSlot {
			return rep.Resettles[i].BrownoutSlot < rep.Resettles[j].BrownoutSlot
		}
		return rep.Resettles[i].TID < rep.Resettles[j].TID
	})
	return rep
}

// Analyze computes the recovery metrics of a recorded event stream: a
// Recovery folded over events.
func Analyze(events []obs.Event) RecoveryReport {
	r := NewRecovery()
	for _, ev := range events {
		r.Observe(ev)
	}
	return r.Report()
}

// String renders the report deterministically for CLI output.
func (r RecoveryReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "recovery: slots=%d settled=%d churn=%d reconverge=%d slots after last fault\n",
		r.Slots, r.FinalSettled, r.SettledChurn, r.ReconvergeSlots)
	fmt.Fprintf(&b, "  ledger: settles=%d unsettles=%d evictions=%d duplicate_slot_violations=%d\n",
		r.Settles, r.Unsettles, r.Evictions, r.DuplicateSlotViolations)
	fmt.Fprintf(&b, "  power:  brownouts=%d rejoins=%d resettled=%d unrecovered=%d max_resettle=%.1f periods\n",
		r.Brownouts, r.Rejoins, len(r.Resettles)-r.Unrecovered, r.Unrecovered, r.MaxResettlePeriods)
	keys := make([]string, 0, len(r.Injected))
	for k := range r.Injected {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(&b, "  faults:")
	if len(keys) == 0 {
		fmt.Fprintf(&b, " none")
	}
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%d", k, r.Injected[k])
	}
	return b.String()
}
