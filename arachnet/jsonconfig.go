package arachnet

import (
	"encoding/json"
	"fmt"
	"os"
)

// JSON configuration for deployments, so the CLI tools and external
// automation can describe networks without writing Go. Durations are
// expressed in microseconds (the simulation tick); rates in bits per
// second.
//
// Example:
//
//	{
//	  "seed": 7,
//	  "slot_duration_us": 1000000,
//	  "dl_rate_bps": 250,
//	  "tags": [
//	    {"tid": 1, "period": 4, "start_charged": true},
//	    {"tid": 11, "period": 32, "with_sensor": true}
//	  ]
//	}

type jsonTagSpec struct {
	TID          uint8 `json:"tid"`
	Period       int   `json:"period"`
	WithSensor   bool  `json:"with_sensor,omitempty"`
	StartCharged bool  `json:"start_charged,omitempty"`
}

type jsonNetworkConfig struct {
	Seed           uint64        `json:"seed"`
	SlotDurationUS int64         `json:"slot_duration_us,omitempty"`
	ULDivider      int           `json:"ul_divider,omitempty"`
	DLRateBps      float64       `json:"dl_rate_bps,omitempty"`
	Tags           []jsonTagSpec `json:"tags"`
}

// configToJSON lowers a NetworkConfig to the wire schema; shared by
// the network and fleet spec writers.
func configToJSON(cfg NetworkConfig) jsonNetworkConfig {
	j := jsonNetworkConfig{
		Seed:           cfg.Seed,
		SlotDurationUS: int64(cfg.SlotDuration),
		ULDivider:      cfg.ULDivider,
		DLRateBps:      cfg.DLRate,
	}
	for _, t := range cfg.Tags {
		j.Tags = append(j.Tags, jsonTagSpec{
			TID: t.TID, Period: int(t.Period),
			WithSensor: t.WithSensor, StartCharged: t.StartCharged,
		})
	}
	return j
}

// toConfig raises the wire schema back into a validated NetworkConfig;
// shared by the network and fleet spec loaders.
func (j jsonNetworkConfig) toConfig() (NetworkConfig, error) {
	cfg := NetworkConfig{
		Seed:         j.Seed,
		SlotDuration: Time(j.SlotDurationUS),
		ULDivider:    j.ULDivider,
		DLRate:       j.DLRateBps,
	}
	for _, t := range j.Tags {
		cfg.Tags = append(cfg.Tags, TagSpec{
			TID: t.TID, Period: Period(t.Period),
			WithSensor: t.WithSensor, StartCharged: t.StartCharged,
		})
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return NetworkConfig{}, err
	}
	return cfg, nil
}

// UnmarshalConfigJSON parses the JSON schema into a NetworkConfig and
// validates it.
func UnmarshalConfigJSON(data []byte) (NetworkConfig, error) {
	var j jsonNetworkConfig
	if err := json.Unmarshal(data, &j); err != nil {
		return NetworkConfig{}, fmt.Errorf("arachnet: parse config: %w", err)
	}
	return j.toConfig()
}

// LoadConfigFile reads and validates a JSON deployment description.
func LoadConfigFile(path string) (NetworkConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return NetworkConfig{}, fmt.Errorf("arachnet: read config: %w", err)
	}
	return UnmarshalConfigJSON(data)
}
