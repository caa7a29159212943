package arachnet

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"
)

// JSON fleet specifications, so the arachnet-fleet CLI and external
// automation can describe whole fleets without writing Go. The schema
// is the json tags of Fleet and VehicleSpec; the per-vehicle "network"
// block is the deployment schema of NetworkConfig (jsonconfig.go).
//
// Example:
//
//	{
//	  "seed": 7,
//	  "workers": 8,
//	  "job_timeout_ms": 60000,
//	  "vehicles": [
//	    {"name": "sweep", "engine": "slots", "pattern": "c3",
//	     "converge_within": 500000, "replicate": 64},
//	    {"name": "suv", "engine": "network", "seconds": 300,
//	     "network": {"tags": [{"tid": 1, "period": 4, "start_charged": true}]}}
//	  ]
//	}
//
// A "faults" block (the fault-plan schema from internal/faults) may
// appear at the fleet level — the default chaos plan for every vehicle
// — or per vehicle, which overrides the fleet default.

// fleetWire is a Fleet on the wire: every field under its json tag,
// and the job timeout in milliseconds.
type fleetWire struct {
	*Fleet
	JobTimeoutMS int64 `json:"job_timeout_ms,omitempty"`
}

// MarshalFleetJSON serializes a Fleet to the JSON schema. The Trace
// field is runtime-only and is not serialized.
func MarshalFleetJSON(f Fleet) ([]byte, error) {
	return json.MarshalIndent(fleetWire{&f, int64(f.JobTimeout / time.Millisecond)}, "", "  ")
}

// UnmarshalFleetJSON parses a fleet specification and checks what
// parsing can: the JSON itself, fault plans, network configs and a
// non-empty vehicle list. It compiles nothing, so an unknown pattern,
// engine or period is reported by Fleet.Jobs (and so by Fleet.Run),
// still before any job runs.
func UnmarshalFleetJSON(data []byte) (Fleet, error) {
	var f Fleet
	w := fleetWire{Fleet: &f}
	if err := json.Unmarshal(data, &w); err != nil {
		return Fleet{}, fmt.Errorf("arachnet: parse fleet spec: %w", err)
	}
	// A negative timeout, or one whose nanoseconds overflow, would reach
	// the pool as a timeout <= 0, which means no limit at all.
	if w.JobTimeoutMS < 0 || w.JobTimeoutMS > math.MaxInt64/int64(time.Millisecond) {
		return Fleet{}, fmt.Errorf("arachnet: fleet spec job_timeout_ms %d out of range [0, %d]",
			w.JobTimeoutMS, math.MaxInt64/int64(time.Millisecond))
	}
	f.JobTimeout = time.Duration(w.JobTimeoutMS) * time.Millisecond
	if f.Faults != nil {
		if err := f.Faults.Validate(); err != nil {
			return Fleet{}, fmt.Errorf("arachnet: fleet faults: %w", err)
		}
	}
	for i := range f.Vehicles {
		v := &f.Vehicles[i]
		if v.Network != nil {
			cfg, err := v.Network.checked()
			if err != nil {
				return Fleet{}, fmt.Errorf("arachnet: fleet vehicle %d (%q): %w", i, v.Name, err)
			}
			v.Network = &cfg
		}
		if v.Faults != nil {
			if err := v.Faults.Validate(); err != nil {
				return Fleet{}, fmt.Errorf("arachnet: fleet vehicle %d (%q) faults: %w", i, v.Name, err)
			}
		}
	}
	if len(f.Vehicles) == 0 {
		return Fleet{}, fmt.Errorf("arachnet: fleet spec has no vehicles")
	}
	return f, nil
}

// LoadFleetFile reads and parses a JSON fleet specification, with the
// checks of UnmarshalFleetJSON; provisioning errors surface at
// Fleet.Jobs or Fleet.Run.
func LoadFleetFile(path string) (Fleet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Fleet{}, fmt.Errorf("arachnet: read fleet spec: %w", err)
	}
	return UnmarshalFleetJSON(data)
}

// SaveFleetFile writes the fleet specification as JSON.
func SaveFleetFile(path string, f Fleet) error {
	data, err := MarshalFleetJSON(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
