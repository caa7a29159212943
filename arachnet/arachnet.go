// Package arachnet is the public API of the ARACHNET reproduction: an
// acoustic backscatter network for vehicle Body-in-White (BiW)
// monitoring, after Wang et al., SIGCOMM 2025.
//
// The package composes the internal substrates into two simulation
// granularities that share the same protocol state machines:
//
//   - Network: the full event-level system — the ONVO L60 BiW acoustic
//     channel, energy-harvesting battery-free tags running
//     interrupt-driven firmware on simulated MSP430s, and the reader
//     with its slotted beacon schedule. Use it when electrical and
//     timing behaviour matters (charging, brown-out, PIE demodulation
//     error, ping-pong latency).
//
//   - SlotSim (re-exported from the mac package): the fast
//     slot-granularity protocol simulator. Use it for long-horizon
//     protocol studies (convergence, utilization, ALOHA comparisons)
//     where one slot is one event.
//
// A minimal session:
//
//	cfg := arachnet.DefaultNetworkConfig()
//	net, err := arachnet.NewNetwork(cfg)
//	if err != nil { ... }
//	net.Run(120 * arachnet.Second)
//	fmt.Println(net.Stats())
package arachnet

import (
	"repro/internal/mac"
	"repro/internal/sim"
)

// Re-exported simulation time helpers, so callers don't need to import
// internal packages.
type Time = sim.Time

// Time unit constants.
const (
	Millisecond = sim.Millisecond
	Second      = sim.Second
	Minute      = sim.Minute
)

// Period is a tag's transmission period in slots (a power of two).
type Period = mac.Period

// Pattern is a workload: one period per tag (Table 3 of the paper).
type Pattern = mac.Pattern

// Table3Patterns returns the paper's nine evaluation workloads c1-c9.
func Table3Patterns() []Pattern { return mac.Table3Patterns() }

// Table3Pattern looks up a Table 3 workload by name ("c1".."c9").
func Table3Pattern(name string) (Pattern, bool) {
	for _, p := range mac.Table3Patterns() {
		if p.Name == name {
			return p, true
		}
	}
	return Pattern{}, false
}

// SlotSim and its configuration, re-exported for protocol-level
// studies.
type (
	SlotSim       = mac.SlotSim
	SlotSimConfig = mac.SlotSimConfig
)

// NewSlotSim builds the fast slot-level protocol simulator.
func NewSlotSim(cfg SlotSimConfig) (*SlotSim, error) { return mac.NewSlotSim(cfg) }

// SimulateAloha runs the Appendix B pure-ALOHA baseline.
func SimulateAloha(cfg AlohaConfig) (AlohaResult, error) { return mac.SimulateAloha(cfg) }

// ALOHA baseline types, re-exported.
type (
	AlohaConfig = mac.AlohaConfig
	AlohaResult = mac.AlohaResult
)

// DefaultAlohaConfig returns the paper's Appendix B settings for the
// given per-tag full-charge times.
func DefaultAlohaConfig(chargeTimes []float64) AlohaConfig {
	return mac.DefaultAlohaConfig(chargeTimes)
}
