package arachnet

import (
	"fmt"

	"repro/internal/mac"
	"repro/internal/obs"
	"repro/internal/phy"
	"repro/internal/reader"
	"repro/internal/sim"
)

// TagSpec provisions one tag in the network.
type TagSpec struct {
	// TID is the 4-bit identifier (1..15; 0 is reserved).
	TID uint8 `json:"tid"`
	// Period is the transmission period in slots.
	Period Period `json:"period"`
	// WithSensor attaches the strain module.
	WithSensor bool `json:"with_sensor,omitempty"`
	// StartCharged skips the initial charging phase for this tag.
	StartCharged bool `json:"start_charged,omitempty"`
}

// NetworkConfig describes a full event-level deployment. The json
// tags are the deployment schema (jsonconfig.go).
type NetworkConfig struct {
	// Tags lists the tag population. TIDs map 1:1 onto the ONVO L60
	// deployment positions (tag 1 dashboard ... tag 12 threshold), so
	// at most 12 tags are supported by the built-in deployment.
	Tags []TagSpec `json:"tags"`
	// Seed drives all randomness.
	Seed uint64 `json:"seed"`
	// SlotDuration is the slot length (default 1 s).
	SlotDuration Time `json:"slot_duration_us,omitempty"`
	// ULDivider is the MCU clock divider for the uplink (default 32,
	// i.e. 375 bps).
	ULDivider int `json:"ul_divider,omitempty"`
	// DLRate is the downlink chip rate (default 250 bps).
	DLRate float64 `json:"dl_rate_bps,omitempty"`
	// WaveformDecode runs every slot's uplink through real DSP
	// (synthesis, FM0 decode, cluster-based collision detection)
	// instead of the calibrated probabilistic link model. Slower but
	// fully mechanistic; see arachnet/waveform.go.
	WaveformDecode bool `json:"-"`
	// Trace, when set, receives structured observability events from
	// every layer: engine event firing, slot open/close, tag
	// settle/unsettle/evict, energy cutoff and brownout, and decode
	// outcomes. A nil tracer (the default) costs nothing. Mute
	// KindSimEvent unless engine-level detail is wanted — event-level
	// runs fire thousands of engine events per simulated second.
	Trace *obs.Tracer `json:"-"`
}

// DefaultNetworkConfig returns the paper's 12-tag deployment with the
// Table 3 pattern c3 periods and all tags starting charged.
func DefaultNetworkConfig() NetworkConfig {
	c3 := mac.Table3Patterns()[2]
	cfg := NetworkConfig{Seed: 1}
	for i, p := range c3.Periods {
		cfg.Tags = append(cfg.Tags, TagSpec{TID: uint8(i + 1), Period: p, StartCharged: true})
	}
	return cfg.withDefaults()
}

// withDefaults fills zero fields.
func (c NetworkConfig) withDefaults() NetworkConfig {
	if c.SlotDuration == 0 {
		c.SlotDuration = sim.Second
	}
	if c.ULDivider == 0 {
		c.ULDivider = 32
	}
	if c.DLRate == 0 {
		c.DLRate = phy.DefaultDLRate
	}
	return c
}

// readerConfig is the paper's reader at this deployment's slot length
// and downlink rate.
func (c NetworkConfig) readerConfig() reader.Config {
	r := reader.DefaultConfig()
	r.SlotDuration = c.SlotDuration
	r.DLRate = c.DLRate
	return r
}

// validate checks the population.
func (c NetworkConfig) validate() error {
	if len(c.Tags) == 0 {
		return fmt.Errorf("arachnet: no tags configured")
	}
	if len(c.Tags) > 12 {
		return fmt.Errorf("arachnet: deployment supports at most 12 tags, got %d", len(c.Tags))
	}
	seen := map[uint8]bool{}
	var util float64
	for _, t := range c.Tags {
		if t.TID == 0 || t.TID >= phy.MaxTags {
			return fmt.Errorf("arachnet: TID %d out of range 1..15", t.TID)
		}
		if seen[t.TID] {
			return fmt.Errorf("arachnet: duplicate TID %d", t.TID)
		}
		seen[t.TID] = true
		if !mac.ValidPeriod(t.Period) {
			return fmt.Errorf("arachnet: tag %d period %d is not a power of two", t.TID, t.Period)
		}
		util += 1 / float64(t.Period)
	}
	if util > 1+1e-12 {
		// Eq. 1: beyond capacity the protocol can never settle all
		// tags; reject the provisioning error early.
		return fmt.Errorf("arachnet: slot utilization %.3f exceeds channel capacity 1.0", util)
	}
	return nil
}
