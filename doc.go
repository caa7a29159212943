// Package repro is a from-scratch Go reproduction of "Acoustic
// Backscatter Network for Vehicle Body-in-White" (Wang et al., ACM
// SIGCOMM 2025): ARACHNET, a battery-free sensor network that uses a
// vehicle's metal body as both a power conduit and a communication
// channel.
//
// The public API lives in package arachnet; the evaluation harness in
// package experiments; the substrates (BiW acoustics, PZT transducers,
// energy harvesting, PHY codecs, reader DSP, MCU simulation, the
// distributed slot-allocation protocol and its formal convergence
// model) under internal/. Fleet-scale runs — many independent vehicle
// simulations sharded across a deterministic worker pool — go through
// arachnet.Fleet.Run (internal/fleet, cmd/arachnet-fleet). See
// README.md for the architecture overview, DESIGN.md for the system
// inventory and EXPERIMENTS.md for the paper-versus-measured record.
package repro
