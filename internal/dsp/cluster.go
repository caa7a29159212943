package dsp

import (
	"math"
	"slices"
)

// Amplitude-domain collision detection (Sec. 5.3). With a single tag
// backscattering, the baseband amplitude collapses onto two clusters
// (reflective / absorptive states, shifted by the carrier leakage).
// With k concurrently transmitting tags the reflections superpose and
// up to 2^k clusters appear. The reader counts clusters and declares a
// collision when it sees more than two, even if the capture effect
// would let it decode one packet.

// cluster is one amplitude cluster of countClusters.
type cluster struct {
	center float64
	count  int
}

// countClusters estimates the number of distinct amplitude clusters in
// the block. Samples are clustered greedily on their magnitude |v|
// with the given merge radius (same units as the samples); clusters
// holding fewer than minFraction of the samples are discarded as
// transient edges between states. It works in sc's buffers.
//
//alloc:hot per-slot collision count of the waveform-mode network
func (sc *SlotScratch) countClusters(block []float64, radius float64, minFraction float64) int {
	if len(block) == 0 || radius <= 0 {
		return 0
	}
	sc.mags = sc.mags[:0]
	for _, v := range block {
		sc.mags = append(sc.mags, math.Abs(v))
	}
	slices.Sort(sc.mags)

	clusters := sc.clusters[:0]
	for _, m := range sc.mags {
		placed := false
		for i := range clusters {
			if math.Abs(m-clusters[i].center) <= radius {
				// Incremental mean keeps centers tracking the data.
				clusters[i].center += (m - clusters[i].center) / float64(clusters[i].count+1)
				clusters[i].count++
				placed = true
				break
			}
		}
		if !placed {
			clusters = append(clusters, cluster{center: m, count: 1})
		}
	}
	sc.clusters = clusters
	minCount := int(minFraction * float64(len(block)))
	if minCount < 1 {
		minCount = 1
	}
	n := 0
	for _, c := range clusters {
		if c.count >= minCount {
			n++
		}
	}
	return n
}
