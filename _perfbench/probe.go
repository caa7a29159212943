package main

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The host-speed probe. A shared host slows down in phases that last
// tens of seconds, as neighbours contend for cores and caches; a whole
// run can land in one, which moves every host time 20-50% between runs
// of the same code. So every workload times a fixed piece of
// benchmark-owned work, sorting a fixed permutation on GOMAXPROCS
// goroutines, between its operations, and scales each operation's time
// by probeRef over the probe times around it. End-to-end times thus
// read as milliseconds on a host that runs the probe in probeRef. The
// probe calls no repository code, so no change to the program can move
// it. The raw host times are logged on standard error.

const (
	probeInts   = 100_000
	probeRounds = 3
	// probeRef is the probe's typical time on the host the benchmark was
	// defined on (2 vCPUs, GOMAXPROCS 2), so normalized times stay close
	// to host times there.
	probeRef = 38 * time.Millisecond
)

type hostProbe struct {
	src  []int
	bufs [][]int
	// times are the probe's measurements, in order.
	times []time.Duration
}

func newHostProbe() *hostProbe {
	p := &hostProbe{src: rand.New(rand.NewSource(1)).Perm(probeInts)}
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		p.bufs = append(p.bufs, make([]int, probeInts))
	}
	return p
}

// measure runs the probe once, records its time and returns its index.
func (p *hostProbe) measure() int {
	start := time.Now()
	var wg sync.WaitGroup
	for _, buf := range p.bufs {
		wg.Add(1)
		go func(buf []int) {
			defer wg.Done()
			for r := 0; r < probeRounds; r++ {
				copy(buf, p.src)
				sort.Ints(buf)
			}
		}(buf)
	}
	wg.Wait()
	p.times = append(p.times, time.Since(start))
	return len(p.times) - 1
}

// scale is the factor for work done between probes i and j: probeRef
// over their mean time.
func (p *hostProbe) scale(i, j int) float64 {
	return 2 * float64(probeRef) / float64(p.times[i]+p.times[j])
}

// medianMS is the median probe time in milliseconds.
func (p *hostProbe) medianMS() float64 {
	xs := make([]float64, len(p.times))
	for i, d := range p.times {
		xs[i] = ms(d)
	}
	return median(xs)
}
