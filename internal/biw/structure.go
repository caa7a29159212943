// Package biw models the vehicle Body-in-White (BiW) as an acoustic
// medium. The BiW is represented as a graph of structural elements
// (floor panels, rocker panels, pillars, beams); vibration launched by
// the reader's PZT propagates along the sheet metal, losing energy to
// distance attenuation and to geometric junctions (welded seams,
// perpendicular transitions). The model exposes per-link channel gains
// that the energy-harvesting and communication layers consume.
//
// The paper deploys on the BiW of an ONVO L60 SUV (4.8 m x 1.9 m) with
// 12 tags and a single reader; NewONVOL60 reproduces that deployment,
// calibrated so the harvested voltages match Fig. 11(a) of the paper.
//
// A Structure compiles its minimum-loss paths into a table on the first
// query and answers every later PathLossDB, Gain and PropagationDelay
// from it without allocating. Any number of goroutines may query one
// Structure (and the Deployment and Channel built on it) at once;
// mutating a Structure (AddElement, Connect, its loss fields) while
// other goroutines read it is not supported.
package biw

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Position is a point on the BiW in vehicle coordinates: x runs from
// the front bumper (0) to the rear (vehicle length), y from the left
// side (negative) to the right (positive), z upward from the floor.
// Units are meters.
type Position struct {
	X, Y, Z float64
}

// Distance returns the Euclidean distance between two positions.
func (p Position) Distance(q Position) float64 {
	dx, dy, dz := p.X-q.X, p.Y-q.Y, p.Z-q.Z
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}

func (p Position) String() string {
	return fmt.Sprintf("(%.2f, %.2f, %.2f)", p.X, p.Y, p.Z)
}

// ElementKind classifies a structural element. The kind has no direct
// effect on propagation (losses live on edges) but is useful for
// reporting and deployment description.
type ElementKind int

const (
	KindFloorPanel ElementKind = iota
	KindRockerPanel
	KindPillar
	KindBeam
	KindDashboard
	KindThreshold
)

var kindNames = map[ElementKind]string{
	KindFloorPanel:  "floor-panel",
	KindRockerPanel: "rocker-panel",
	KindPillar:      "pillar",
	KindBeam:        "beam",
	KindDashboard:   "dashboard",
	KindThreshold:   "threshold",
}

func (k ElementKind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("ElementKind(%d)", int(k))
}

// Element is one structural member of the BiW.
type Element struct {
	Name string
	Kind ElementKind
	Pos  Position // representative mount point on the element
}

// Structure is the acoustic graph of the BiW.
type Structure struct {
	// AttenuationDBPerMeter is the distance attenuation of a 90 kHz
	// Lamb wave in the sheet metal, including spreading loss.
	AttenuationDBPerMeter float64
	// CouplingLossDB is the fixed loss of the transmit-side
	// electro-mechanical conversion plus epoxy bond, applied once per
	// end-to-end path.
	CouplingLossDB float64

	elements map[string]*Element
	adj      map[string][]edge

	// mu serialises path-table compiles; table is the published table.
	mu    sync.Mutex
	table atomic.Pointer[pathTable]
}

type edge struct {
	to       string
	distance float64
	junction float64
}

// NewStructure returns an empty structure with the given loss constants.
func NewStructure(attenuationDBPerMeter, couplingLossDB float64) *Structure {
	return &Structure{
		AttenuationDBPerMeter: attenuationDBPerMeter,
		CouplingLossDB:        couplingLossDB,
		elements:              make(map[string]*Element),
		adj:                   make(map[string][]edge),
	}
}

// AddElement registers a structural element. Re-adding a name replaces
// the element but keeps its junctions.
func (s *Structure) AddElement(name string, kind ElementKind, pos Position) {
	s.elements[name] = &Element{Name: name, Kind: kind, Pos: pos}
	s.table.Store(nil)
}

// Elements returns all element names in sorted order.
func (s *Structure) Elements() []string {
	names := make([]string, 0, len(s.elements))
	for n := range s.elements {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Connect adds a bidirectional junction between two elements. The
// distance used for attenuation is the Euclidean distance between the
// elements' mount points. It returns an error if either endpoint is
// unknown.
func (s *Structure) Connect(a, b string, junctionLossDB float64) error {
	ea, ok := s.elements[a]
	if !ok {
		return fmt.Errorf("biw: unknown element %q", a)
	}
	eb, ok := s.elements[b]
	if !ok {
		return fmt.Errorf("biw: unknown element %q", b)
	}
	d := ea.Pos.Distance(eb.Pos)
	s.adj[a] = append(s.adj[a], edge{to: b, distance: d, junction: junctionLossDB})
	s.adj[b] = append(s.adj[b], edge{to: a, distance: d, junction: junctionLossDB})
	s.table.Store(nil)
	return nil
}

// PathLossDB returns the one-way acoustic loss in dB between mount
// points on elements a and b (minimum-loss path through the structure),
// including the fixed coupling loss. The second return is the physical
// path length in meters (for propagation-delay computation); among
// equal-loss paths it is the shortest. It returns an error if no path
// exists.
//
// The first query compiles the path table (see pathTable); every later
// query is a lookup that does not allocate.
func (s *Structure) PathLossDB(a, b string) (lossDB, pathMeters float64, err error) {
	t := s.paths()
	i, ok := t.index[a]
	if !ok {
		return 0, 0, fmt.Errorf("biw: unknown element %q", a)
	}
	j, ok := t.index[b]
	if !ok {
		return 0, 0, fmt.Errorf("biw: unknown element %q", b)
	}
	k := i*len(t.index) + j
	if !t.reached[k] {
		return 0, 0, fmt.Errorf("biw: no acoustic path from %q to %q", a, b)
	}
	return t.loss[k] + s.CouplingLossDB, t.meters[k], nil
}

// pathTable is the all-pairs minimum-loss table of a Structure: row i,
// column j holds the loss (without coupling) and length of the best
// path from element i to element j, elements indexed in name order.
// A published table is never written again, so any number of
// goroutines may read it.
type pathTable struct {
	attenuation float64 // AttenuationDBPerMeter the table was built with
	index       map[string]int
	loss        []float64
	meters      []float64
	reached     []bool
}

// paths returns the structure's path table, compiling it on first use
// and again after AddElement, Connect or a change of
// AttenuationDBPerMeter.
func (s *Structure) paths() *pathTable {
	if t := s.table.Load(); t != nil && t.builtFor(s) {
		return t
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t := s.table.Load(); t != nil && t.builtFor(s) {
		return t
	}
	t := s.compilePaths()
	s.table.Store(t)
	return t
}

// builtFor reports whether t was compiled with s's current attenuation.
func (t *pathTable) builtFor(s *Structure) bool {
	return math.Float64bits(t.attenuation) == math.Float64bits(s.AttenuationDBPerMeter)
}

// compilePaths runs one single-source Dijkstra per element over dense
// index slices. Path cost is ordered by (loss, meters), with remaining
// ties broken by element index, so the result never depends on map
// order. Loss and length accumulate from the source outward, exactly
// as a per-pair search from that source would add them.
func (s *Structure) compilePaths() *pathTable {
	names := s.Elements()
	n := len(names)
	t := &pathTable{
		attenuation: s.AttenuationDBPerMeter,
		index:       make(map[string]int, n),
		loss:        make([]float64, n*n),
		meters:      make([]float64, n*n),
		reached:     make([]bool, n*n),
	}
	for i, name := range names {
		t.index[name] = i
	}
	type arc struct {
		to                 int
		distance, junction float64
	}
	adj := make([][]arc, n)
	for i, name := range names {
		for _, e := range s.adj[name] {
			adj[i] = append(adj[i], arc{t.index[e.to], e.distance, e.junction})
		}
	}
	for src := 0; src < n; src++ {
		loss := t.loss[src*n : (src+1)*n]
		dist := t.meters[src*n : (src+1)*n]
		done := t.reached[src*n : (src+1)*n]
		for v := range loss {
			loss[v] = math.Inf(1)
		}
		loss[src] = 0
		for {
			cur := -1
			for v := range loss {
				if done[v] || math.IsInf(loss[v], 1) {
					continue
				}
				if cur < 0 || loss[v] < loss[cur] || (loss[v] == loss[cur] && dist[v] < dist[cur]) {
					cur = v
				}
			}
			if cur < 0 {
				break
			}
			done[cur] = true
			for _, e := range adj[cur] {
				nl := loss[cur] + e.distance*s.AttenuationDBPerMeter + e.junction
				nd := dist[cur] + e.distance
				if !done[e.to] && (nl < loss[e.to] || (nl == loss[e.to] && nd < dist[e.to])) {
					loss[e.to], dist[e.to] = nl, nd
				}
			}
		}
	}
	return t
}

// SpeedOfSound is the group velocity of the 90 kHz plate wave in the
// BiW sheet steel, used for propagation delays. m/s.
const SpeedOfSound = 5100.0

// PropagationDelay returns the one-way acoustic travel time in seconds
// between two elements along the minimum-loss path.
func (s *Structure) PropagationDelay(a, b string) (float64, error) {
	_, dist, err := s.PathLossDB(a, b)
	if err != nil {
		return 0, err
	}
	return dist / SpeedOfSound, nil
}
