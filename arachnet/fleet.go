package arachnet

import (
	"context"
	"fmt"
	"time"

	"repro/internal/fleet"
	"repro/internal/mac"
)

// Fleet-scale simulation: run many independent vehicles (each a full
// network or a slot-level protocol simulation) through the sharded
// worker pool in internal/fleet, with deterministic per-job seeding
// and fleet-wide metric aggregation. This is the scaling seam for
// Monte Carlo sweeps (Fig. 15 style convergence distributions run
// per-seed jobs) and for fleet-operator workloads (thousands of
// vehicles, one simulation each).

// Re-exported fleet types, so callers don't import internal packages.
type (
	FleetConfig       = fleet.Config
	FleetJobSpec      = fleet.JobSpec
	FleetJobInfo      = fleet.JobInfo
	FleetResult       = fleet.Result
	FleetReport       = fleet.Report
	FleetDistribution = fleet.Distribution
)

// Job status values, re-exported.
const (
	FleetJobOK     = fleet.StatusOK
	FleetJobFailed = fleet.StatusFailed
)

// Metric and counter names emitted by the built-in vehicle engines.
// The fault-plan metrics appear only on chaos jobs (vehicles with a
// non-empty Faults plan).
const (
	FleetMetricConvergenceSlots = "convergence_slots"
	FleetMetricNonEmptyRatio    = "nonempty_ratio"
	FleetMetricCollisionRatio   = "collision_ratio"
	FleetMetricConverged        = "converged"
	FleetMetricReconvergeSlots  = "reconverge_slots"
	FleetMetricSettledChurn     = "settled_churn"
	FleetCounterSlots           = "slots"
	FleetCounterDecoded         = "decoded"
	FleetCounterFaultsInjected  = "faults_injected"
	FleetCounterBrownouts       = "fault_brownouts"
)

// DeriveFleetSeed exposes the pool's per-job seed derivation.
func DeriveFleetSeed(fleetSeed, jobIndex uint64) uint64 { return fleet.DeriveSeed(fleetSeed, jobIndex) }

// NewFleetDistribution aggregates a sample slice with the fleet's
// order-independent percentile summary.
func NewFleetDistribution(samples []float64) FleetDistribution {
	return fleet.NewDistribution(samples)
}

// VehicleSpec describes one fleet vehicle (optionally replicated into
// a seed sweep). The zero value plus a Name runs the default c3
// workload on the fast slots engine. The json tags are the vehicle
// entries of the fleet spec schema (fleetjson.go).
type VehicleSpec struct {
	// Name labels the job(s); replicas get "-<k>" suffixes.
	Name string `json:"name"`
	// Engine selects the simulation granularity: "slots" (default,
	// fast protocol simulator) or "network" (full event-level system).
	Engine string `json:"engine,omitempty"`
	// Pattern names a Table 3 workload (c1..c9); default c3.
	Pattern string `json:"pattern,omitempty"`
	// Periods overrides Pattern with explicit per-tag periods.
	Periods []Period `json:"periods,omitempty"`
	// Network overrides everything for the network engine: a full
	// deployment description. Seed and Trace are per job: each job
	// runs on its own seed, and only a chaos job traces (into its
	// recovery folder); lifecycle tracing is Fleet.Trace.
	Network *NetworkConfig `json:"network,omitempty"`

	// Slots is the slots-engine horizon (default 10_000).
	Slots int `json:"slots,omitempty"`
	// ConvergeWithin switches the slots engine to convergence mode:
	// run until the Fig. 15 detector fires, failing the job if it has
	// not within this many slots.
	ConvergeWithin int `json:"converge_within,omitempty"`
	// Seconds is the network-engine horizon in simulated seconds
	// (default 120).
	Seconds int `json:"seconds,omitempty"`
	// ChargeFromEmpty makes network-engine tags charge from an empty
	// supercap instead of starting energized.
	ChargeFromEmpty bool `json:"charge_from_empty,omitempty"`

	// Faults injects a deterministic fault plan into every replica
	// (each seeded from its job seed, so chaos sweeps replicate
	// bit-identically for a pinned fleet seed regardless of worker
	// count). Nil inherits the fleet-level plan; chaos jobs report the
	// extra recovery metrics and fault counters. Use the slots horizon
	// rather than ConvergeWithin — a faulted run may never converge.
	Faults *FaultPlan `json:"faults,omitempty"`

	// Replicate expands the vehicle into this many jobs with distinct
	// deterministic seeds (default 1).
	Replicate int `json:"replicate,omitempty"`
	// Seed, when set, pins the vehicle's seed; otherwise seeds derive
	// from the fleet seed and job index. Replicas of a pinned vehicle
	// use *Seed, *Seed+1, ...
	Seed *uint64 `json:"seed,omitempty"`
}

// Fleet is a whole fleet run: vehicles, worker shards, master seed.
// The json tags are the fleet spec schema (fleetjson.go), which carries
// JobTimeout as job_timeout_ms.
type Fleet struct {
	// Seed is the master seed all unpinned job seeds derive from.
	Seed uint64 `json:"seed"`
	// Workers is the worker-shard count; <= 0 means GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
	// JobTimeout bounds each vehicle's wall-clock run; 0 = unlimited.
	JobTimeout time.Duration `json:"-"`
	// Trace receives each job's TraceJobStart and TraceJobFinish
	// events (may be nil).
	Trace *Tracer `json:"-"`
	// Faults is the fleet-wide default fault plan, applied to every
	// vehicle that doesn't pin its own.
	Faults *FaultPlan `json:"faults,omitempty"`
	// Vehicles is the fleet population.
	Vehicles []VehicleSpec `json:"vehicles"`
}

// periods resolves the slot pattern a vehicle runs.
func (v VehicleSpec) periods() (mac.Pattern, error) {
	if len(v.Periods) > 0 {
		name := v.Name
		if name == "" {
			name = "custom"
		}
		return mac.Pattern{Name: name, Periods: v.Periods}, nil
	}
	name := v.Pattern
	if name == "" {
		name = "c3"
	}
	if p, ok := Table3Pattern(name); ok {
		return p, nil
	}
	return mac.Pattern{}, fmt.Errorf("arachnet: unknown pattern %q (want c1..c9)", name)
}

// Jobs compiles the fleet into pool job specs, expanding replicas. It
// is the one compile step: it builds each vehicle's simulator or
// network snapshot, and it is where an unknown pattern, engine or
// period is reported, before any job runs.
func (f Fleet) Jobs() ([]FleetJobSpec, error) {
	var specs []FleetJobSpec
	for vi, v := range f.Vehicles {
		reps := v.Replicate
		if reps <= 0 {
			reps = 1
		}
		name := v.Name
		if name == "" {
			name = fmt.Sprintf("vehicle-%d", vi)
		}
		vv := v
		if vv.Faults == nil {
			vv.Faults = f.Faults
		}
		// One job function per vehicle, shared by every replica: the
		// snapshot behind it (simulator clone pool or frozen network
		// config) is then amortized across the whole seed sweep.
		run, err := vv.jobFunc()
		if err != nil {
			return nil, fmt.Errorf("arachnet: vehicle %q: %w", name, err)
		}
		for k := 0; k < reps; k++ {
			jobName := name
			if reps > 1 {
				jobName = fmt.Sprintf("%s-%d", name, k)
			}
			spec := FleetJobSpec{Name: jobName, Run: run}
			if v.Seed != nil {
				spec.Seed = *v.Seed + uint64(k)
				spec.HasSeed = true
			}
			specs = append(specs, spec)
		}
	}
	return specs, nil
}

// jobFunc builds the vehicle's simulation closure; the same closure is
// shared by replicas (per-job state lives inside the call).
func (v VehicleSpec) jobFunc() (fleet.JobFunc, error) {
	switch v.Engine {
	case "", "slots":
		pt, err := v.periods()
		if err != nil {
			return nil, err
		}
		slots, converge := v.Slots, v.ConvergeWithin
		if slots <= 0 {
			slots = 10_000
		}
		plan := v.Faults
		snap, err := mac.NewSlotSimSnapshot(mac.SlotSimConfig{Pattern: pt})
		if err != nil {
			return nil, err
		}
		return func(ctx context.Context, job FleetJobInfo) (FleetResult, error) {
			return runSlotsVehicle(ctx, snap, job.Seed, slots, converge, plan)
		}, nil
	case "network":
		base := v.Network
		if base == nil {
			pt, err := v.periods()
			if err != nil {
				return nil, err
			}
			cfg := NetworkConfig{}
			for i, p := range pt.Periods {
				cfg.Tags = append(cfg.Tags, TagSpec{
					TID: uint8(i + 1), Period: p, StartCharged: !v.ChargeFromEmpty,
				})
			}
			base = &cfg
		}
		seconds := v.Seconds
		if seconds <= 0 {
			seconds = 120
		}
		plan := v.Faults
		snap, err := NewNetworkSnapshot(*base)
		if err != nil {
			return nil, err
		}
		return func(ctx context.Context, job FleetJobInfo) (FleetResult, error) {
			return runNetworkVehicle(ctx, snap, job.Seed, seconds, plan)
		}, nil
	}
	return nil, fmt.Errorf("unknown engine %q (want slots or network)", v.Engine)
}

// fleetChunkSlots is the cancellation poll interval for the slots
// engine; small enough that timeouts land promptly, large enough to
// stay off the hot path.
const fleetChunkSlots = 512

// runSlotsVehicle executes one slot-level job with cooperative
// cancellation. The simulator comes from the vehicle's clone pool
// (reset to the job seed); a non-empty fault plan turns it into a chaos
// job that folds its recovery metrics as the events arrive (a chaos
// tracer per job, see NewChaosTracer). Only the per-job injector,
// folder and result maps are freshly allocated.
func runSlotsVehicle(ctx context.Context, snap *mac.SlotSimSnapshot, seed uint64, slots, convergeWithin int, plan *FaultPlan) (FleetResult, error) {
	var (
		rec  *Recovery
		tr   *Tracer
		inj  *FaultInjector
		fsrc mac.FaultSource
	)
	if plan != nil && !plan.Empty() {
		rec, tr = NewChaosTracer()
		var err error
		inj, err = NewFaultInjector(*plan, seed, snap.Config().Pattern.NumTags(), tr)
		if err != nil {
			return FleetResult{}, err
		}
		fsrc = inj
	}
	s := snap.Acquire(seed, tr, fsrc)
	defer snap.Release(s)
	return measureSlotsRun(ctx, s, slots, convergeWithin, rec, inj)
}

// measureSlotsRun drives a prepared simulator through the job horizon
// and folds the outcome into a fleet result; rec and inj are nil for a
// fault-free job.
func measureSlotsRun(ctx context.Context, s *mac.SlotSim, slots, convergeWithin int, rec *Recovery, inj *FaultInjector) (FleetResult, error) {
	horizon := slots
	if convergeWithin > 0 {
		horizon = convergeWithin
	}
	for s.SlotsRun < horizon {
		if convergeWithin > 0 && s.Convergence.Converged() {
			break
		}
		if err := ctx.Err(); err != nil {
			return FleetResult{}, err
		}
		n := fleetChunkSlots
		if rest := horizon - s.SlotsRun; n > rest {
			n = rest
		}
		s.Run(n)
	}
	if convergeWithin > 0 && !s.Convergence.Converged() {
		return FleetResult{}, fmt.Errorf("no convergence within %d slots", convergeWithin)
	}
	res := FleetResult{
		Metrics: map[string]float64{
			FleetMetricNonEmptyRatio:  float64(s.TruthNonEmpty) / float64(s.SlotsRun),
			FleetMetricCollisionRatio: float64(s.TruthCollisions) / float64(s.SlotsRun),
			FleetMetricConverged:      0,
		},
		Counters: map[string]uint64{FleetCounterSlots: uint64(s.SlotsRun)},
	}
	if s.Convergence.Converged() {
		res.Metrics[FleetMetricConverged] = 1
		res.Metrics[FleetMetricConvergenceSlots] = float64(s.Convergence.ConvergenceSlot())
	}
	if rec != nil {
		addFaultResults(&res, rec, inj)
	}
	return res, nil
}

// addFaultResults folds a chaos job's recovery analysis into its fleet
// result.
func addFaultResults(res *FleetResult, rec *Recovery, inj *FaultInjector) {
	rep := rec.Report()
	res.Metrics[FleetMetricReconvergeSlots] = float64(rep.ReconvergeSlots)
	res.Metrics[FleetMetricSettledChurn] = float64(rep.SettledChurn)
	res.Counters[FleetCounterFaultsInjected] = uint64(inj.InjectedTotal())
	res.Counters[FleetCounterBrownouts] = uint64(rep.Brownouts)
}

// runNetworkVehicle executes one full event-level job with cooperative
// cancellation (polled every 10 simulated seconds). The deployment,
// channel calibration and period table come frozen from the vehicle's
// NetworkSnapshot; only the per-trial devices, engine and RNG streams
// are built per job. A non-empty fault plan attaches a per-slot
// injector to the running network (fades, carrier outages and forced
// brownouts at the physical layer) and reports the recovery metrics
// folded from its trace as the events arrive.
func runNetworkVehicle(ctx context.Context, snap *NetworkSnapshot, seed uint64, seconds int, plan *FaultPlan) (FleetResult, error) {
	var (
		rec   *Recovery
		trace *Tracer
	)
	faulted := plan != nil && !plan.Empty()
	if faulted {
		rec, trace = NewChaosTracer()
	}
	net, err := snap.Clone(seed, trace)
	if err != nil {
		return FleetResult{}, err
	}
	var inj *FaultInjector
	if faulted {
		if inj, err = net.AttachFaults(*plan, seed); err != nil {
			return FleetResult{}, err
		}
	}
	return measureNetworkRun(ctx, net, seconds, rec, inj)
}

// measureNetworkRun drives a built network, faults attached, through
// the job horizon and folds its stats into a fleet result.
func measureNetworkRun(ctx context.Context, net *Network, seconds int, rec *Recovery, inj *FaultInjector) (FleetResult, error) {
	end := Time(seconds) * Second
	for net.Now() < end {
		if err := ctx.Err(); err != nil {
			return FleetResult{}, err
		}
		next := net.Now() + 10*Second
		if next > end {
			next = end
		}
		net.Run(next)
	}
	st := net.Stats()
	res := FleetResult{
		Metrics: map[string]float64{
			FleetMetricNonEmptyRatio:  st.NonEmptyRatio,
			FleetMetricCollisionRatio: st.CollisionRatio,
			FleetMetricConverged:      0,
		},
		Counters: map[string]uint64{
			FleetCounterSlots:   uint64(st.Slots),
			FleetCounterDecoded: st.Decoded,
		},
	}
	if st.Converged {
		res.Metrics[FleetMetricConverged] = 1
		res.Metrics[FleetMetricConvergenceSlots] = float64(st.ConvergenceSlot)
	}
	if rec != nil {
		addFaultResults(&res, rec, inj)
	}
	return res, nil
}

// Run executes the fleet and returns the aggregated report.
func (f Fleet) Run(ctx context.Context) (*FleetReport, error) {
	specs, err := f.Jobs()
	if err != nil {
		return nil, err
	}
	return fleet.Run(ctx, FleetConfig{
		Workers:    f.Workers,
		Seed:       f.Seed,
		JobTimeout: f.JobTimeout,
		Trace:      f.Trace,
	}, specs)
}
