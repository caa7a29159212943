package arachnet

import (
	"encoding/json"
	"fmt"
	"os"
)

// JSON configuration for deployments, so the CLI tools and external
// automation can describe networks without writing Go. The schema is
// the json tags of NetworkConfig and TagSpec: durations are expressed
// in microseconds (the simulation tick), rates in bits per second.
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

// UnmarshalConfigJSON parses the JSON schema into a NetworkConfig,
// fills its defaults and validates it.
func UnmarshalConfigJSON(data []byte) (NetworkConfig, error) {
	var cfg NetworkConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return NetworkConfig{}, fmt.Errorf("arachnet: parse config: %w", err)
	}
	return cfg.checked()
}

// checked fills the defaults of a decoded config and validates it;
// shared by the network and fleet spec loaders.
func (c NetworkConfig) checked() (NetworkConfig, error) {
	c = c.withDefaults()
	if err := c.validate(); err != nil {
		return NetworkConfig{}, err
	}
	return c, nil
}

// LoadConfigFile reads and validates a JSON deployment description.
func LoadConfigFile(path string) (NetworkConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return NetworkConfig{}, fmt.Errorf("arachnet: read config: %w", err)
	}
	return UnmarshalConfigJSON(data)
}
