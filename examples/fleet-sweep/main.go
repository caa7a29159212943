// fleet-sweep runs a 64-vehicle parameter sweep through the fleet
// worker pool: four Table 3 workloads (c1..c4, utilization 0.38 to
// 0.94), sixteen seed-replicated vehicles each, every vehicle driven
// to first convergence. The per-workload convergence distributions
// come straight out of the aggregated fleet report — the same
// measurement as the paper's Fig. 15 box plots, but run as one
// sharded fleet instead of a serial loop.
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/arachnet"
)

func main() {
	const replicas = 16
	patterns := []string{"c1", "c2", "c3", "c4"}

	f := arachnet.Fleet{
		Seed:       2025,
		JobTimeout: 2 * time.Minute,
	}
	for _, p := range patterns {
		f.Vehicles = append(f.Vehicles, arachnet.VehicleSpec{
			Name:           p,
			Pattern:        p,
			ConvergeWithin: 500_000,
			Replicate:      replicas,
		})
	}

	jobs, _ := f.Jobs()
	fmt.Printf("fleet sweep: %d vehicles (%d workloads x %d seeds)\n\n",
		len(jobs), len(patterns), replicas)

	rep, err := f.Run(context.Background())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if !rep.Ok() {
		fmt.Fprintln(os.Stderr, "fleet had failures:", rep.FirstError())
		os.Exit(1)
	}

	// Per-workload convergence distributions: replicas of one vehicle
	// are contiguous in the index-ordered report.
	fmt.Printf("%-8s %10s %10s %10s %10s\n", "pattern", "median", "p90", "min", "max")
	for i, p := range patterns {
		var samples []float64
		for _, j := range rep.Jobs[i*replicas : (i+1)*replicas] {
			samples = append(samples, j.Result.Metrics[arachnet.FleetMetricConvergenceSlots])
		}
		dist := arachnet.NewFleetDistribution(samples)
		fmt.Printf("%-8s %10.0f %10.0f %10.0f %10.0f\n", p, dist.P50, dist.P90, dist.Min, dist.Max)
	}

	fmt.Printf("\nfleet-wide convergence: %s\n", rep.Metrics[arachnet.FleetMetricConvergenceSlots])
	fmt.Printf("slots simulated: %d across %d workers in %v\n",
		rep.Counters[arachnet.FleetCounterSlots], rep.Workers, rep.Wall.Round(time.Millisecond))
	fmt.Printf("report fingerprint (worker-count independent): %s\n", rep.Fingerprint())
}
