package biw

import "fmt"

// Mount places a device (reader or tag) on a structural element.
// OffsetM is the device's distance (meters) along the sheet metal from
// the element's representative point; it adds plain distance
// attenuation without any junction loss.
type Mount struct {
	Device  string // "reader", "tag1".."tag12", ...
	Element string
	Zone    string // human-readable deployment zone, e.g. "front-row"
	OffsetM float64
}

// Deployment is a BiW structure plus the set of mounted devices.
type Deployment struct {
	Structure *Structure
	Reader    Mount
	Tags      []Mount // index i holds tag i+1, matching the paper's IDs
}

// TagMount returns the mount for 1-based tag id.
func (d *Deployment) TagMount(id int) (Mount, error) {
	if id < 1 || id > len(d.Tags) {
		return Mount{}, fmt.Errorf("biw: tag id %d out of range 1..%d", id, len(d.Tags))
	}
	return d.Tags[id-1], nil
}

// NumTags returns the number of deployed tags.
func (d *Deployment) NumTags() int { return len(d.Tags) }

// TagLossDB returns the one-way reader→tag path loss for 1-based id.
func (d *Deployment) TagLossDB(id int) (float64, error) {
	m, err := d.TagMount(id)
	if err != nil {
		return 0, err
	}
	loss, _, err := d.Structure.PathLossDB(d.Reader.Element, m.Element)
	if err != nil {
		return 0, err
	}
	loss += (m.OffsetM + d.Reader.OffsetM) * d.Structure.AttenuationDBPerMeter
	return loss, nil
}

// TagDelay returns the one-way reader→tag propagation delay in seconds.
func (d *Deployment) TagDelay(id int) (float64, error) {
	m, err := d.TagMount(id)
	if err != nil {
		return 0, err
	}
	return d.Structure.PropagationDelay(d.Reader.Element, m.Element)
}

// NewONVOL60 builds the paper's deployment: the BiW of an ONVO L60 SUV
// (about 4.8 m long, 1.9 m wide), 12 tags in three zones — front row
// (tags 1-3), second row (tags 4-8), cargo area (tags 9-12) — and the
// reader centrally placed in the second row above the battery pack
// (Fig. 10). Loss constants are calibrated against Fig. 11(a): at
// 8 multiplier stages tag 4 (mounted on a perpendicular pillar face)
// harvests about 4.7 V, the distant tag 11 about 2.7 V, and every tag
// clears the 2.3 V activation threshold.
func NewONVOL60() *Deployment {
	s := NewStructure(3.6, 25.8)

	add := func(name string, kind ElementKind, x, y, z float64) {
		s.AddElement(name, kind, Position{X: x, Y: y, Z: z})
	}
	// Front section.
	add("dashboard", KindDashboard, 0.8, 0, 0.5)
	add("front-floor-l", KindFloorPanel, 1.5, -0.6, 0)
	add("front-floor-r", KindFloorPanel, 1.5, 0.6, 0)
	// Second row / middle.
	add("middle-floor", KindFloorPanel, 2.4, 0, 0)
	add("rocker-l", KindRockerPanel, 2.4, -0.95, 0.1)
	add("rocker-r", KindRockerPanel, 2.4, 0.95, 0.1)
	add("b-pillar-l", KindPillar, 2.2, -0.95, 0.9)
	add("b-pillar-r", KindPillar, 2.2, 0.95, 0.9)
	// Rear / cargo.
	add("rear-floor", KindFloorPanel, 3.4, 0, 0.05)
	add("c-pillar-l", KindPillar, 3.4, -0.95, 0.9)
	add("c-pillar-r", KindPillar, 3.4, 0.95, 0.9)
	add("long-beam-l", KindBeam, 3.9, -0.5, 0.05)
	add("long-beam-r", KindBeam, 3.9, 0.5, 0.05)
	add("cargo-floor", KindFloorPanel, 4.35, 0, 0.15)
	add("threshold", KindThreshold, 4.7, 0, 0.25)

	connect := func(a, b string, loss float64) {
		if err := s.Connect(a, b, loss); err != nil {
			//lint:allow panic-hygiene static hand-built topology; a bad edge is a programming bug, not input
			panic(err) // static topology; any error is a programming bug
		}
	}
	connect("dashboard", "front-floor-l", 3.0)
	connect("dashboard", "front-floor-r", 3.0)
	connect("front-floor-l", "middle-floor", 1.5)
	connect("front-floor-r", "middle-floor", 1.5)
	connect("front-floor-l", "rocker-l", 2.0)
	connect("front-floor-r", "rocker-r", 2.0)
	connect("middle-floor", "rocker-l", 2.0)
	connect("middle-floor", "rocker-r", 2.0)
	connect("rocker-l", "b-pillar-l", 4.0) // perpendicular turning face
	connect("rocker-r", "b-pillar-r", 4.0)
	connect("middle-floor", "rear-floor", 1.5)
	connect("rear-floor", "c-pillar-l", 3.5)
	connect("rear-floor", "c-pillar-r", 3.5)
	connect("rear-floor", "long-beam-l", 2.0)
	connect("rear-floor", "long-beam-r", 2.0)
	connect("long-beam-l", "cargo-floor", 2.0)
	connect("long-beam-r", "cargo-floor", 2.0)
	// The threshold (rear sill) is a crossmember tied to the ends of
	// the longitudinal beams.
	connect("long-beam-l", "threshold", 1.5)
	connect("long-beam-r", "threshold", 1.5)
	connect("cargo-floor", "threshold", 2.5)

	return &Deployment{
		Structure: s,
		Reader:    Mount{Device: "reader", Element: "middle-floor", Zone: "second-row"},
		Tags: []Mount{
			{Device: "tag1", Element: "dashboard", Zone: "front-row"},
			{Device: "tag2", Element: "front-floor-l", Zone: "front-row"},
			{Device: "tag3", Element: "front-floor-r", Zone: "front-row", OffsetM: 0.12},
			{Device: "tag4", Element: "b-pillar-l", Zone: "second-row"},
			{Device: "tag5", Element: "rocker-l", Zone: "second-row"},
			{Device: "tag6", Element: "rocker-r", Zone: "second-row", OffsetM: 0.15},
			{Device: "tag7", Element: "b-pillar-r", Zone: "second-row", OffsetM: 0.10},
			{Device: "tag8", Element: "middle-floor", Zone: "second-row", OffsetM: 0.667},
			{Device: "tag9", Element: "long-beam-l", Zone: "cargo-area"},
			{Device: "tag10", Element: "long-beam-r", Zone: "cargo-area", OffsetM: 0.08},
			{Device: "tag11", Element: "cargo-floor", Zone: "cargo-area", OffsetM: 0.32},
			{Device: "tag12", Element: "threshold", Zone: "cargo-area"},
		},
	}
}
