// Outage-recovery: fault injection on the full network. The reader's
// power carrier is cut (vehicle parked, reader unpowered); the
// battery-free tags coast on their supercapacitors, brown out one by
// one, and — once the carrier returns — recharge, rejoin as late
// arrivals through the EMPTY gate, and re-converge without any manual
// intervention. This is the operational story behind the paper's
// battery-free design: no battery to flatten, no state to restore.
//
//	go run ./examples/outage-recovery
package main

import (
	"fmt"
	"log"

	"repro/arachnet"
)

func main() {
	cfg := arachnet.DefaultNetworkConfig()
	cfg.Seed = 11
	net, err := arachnet.NewNetwork(cfg)
	if err != nil {
		log.Fatal(err)
	}

	poweredCount := func() int {
		n := 0
		for _, spec := range net.Cfg.Tags {
			if net.Tag(spec.TID).Powered() {
				n++
			}
		}
		return n
	}
	report := func(phase string) {
		st := net.Stats()
		fmt.Printf("%-22s t=%6.0fs powered=%2d/12 slots=%5d decoded=%5d converged=%v\n",
			phase, net.Now().Seconds(), poweredCount(), st.Slots, st.Decoded, st.Converged)
	}

	// Phase 1: normal operation.
	net.Run(10 * arachnet.Minute)
	report("steady state")

	// Phase 2: carrier off. The shunt held every cap near 2.45 V, so
	// the fleet coasts on the few-microamp sleep floor for a minute or
	// two before the cutoffs trip.
	net.SetCarrier(false)
	for i := 0; i < 4; i++ {
		net.Run(net.Now() + 2*arachnet.Minute)
		report("outage")
	}

	// Phase 3: carrier back. Recharge times follow Fig. 11(b): the
	// second-row tags are back in seconds, the cargo tags in about a
	// minute.
	net.SetCarrier(true)
	for i := 0; i < 4; i++ {
		net.Run(net.Now() + 2*arachnet.Minute)
		report("recovery")
	}

	// Phase 4: the protocol re-converges with zero manual help.
	net.Run(net.Now() + 20*arachnet.Minute)
	report("re-converged")

	fmt.Println()
	for _, tp := range net.Stats().Tags {
		fmt.Printf("tag %2d: activations=%d (1 = initial power-up, 2 = post-outage)\n",
			tp.TID, tp.Activations)
	}
}
