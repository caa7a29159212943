package arachnet

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// JSON fleet specifications, so the arachnet-fleet CLI and external
// automation can describe whole fleets without writing Go. The
// per-vehicle "network" block reuses the deployment schema from
// jsonconfig.go verbatim.
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

type jsonVehicleSpec struct {
	Name            string             `json:"name"`
	Engine          string             `json:"engine,omitempty"`
	Pattern         string             `json:"pattern,omitempty"`
	Periods         []int              `json:"periods,omitempty"`
	Network         *jsonNetworkConfig `json:"network,omitempty"`
	Slots           int                `json:"slots,omitempty"`
	ConvergeWithin  int                `json:"converge_within,omitempty"`
	Seconds         int                `json:"seconds,omitempty"`
	ChargeFromEmpty bool               `json:"charge_from_empty,omitempty"`
	Replicate       int                `json:"replicate,omitempty"`
	Seed            *uint64            `json:"seed,omitempty"`
	Faults          *FaultPlan         `json:"faults,omitempty"`
}

type jsonFleetSpec struct {
	Seed         uint64            `json:"seed"`
	Workers      int               `json:"workers,omitempty"`
	JobTimeoutMS int64             `json:"job_timeout_ms,omitempty"`
	Faults       *FaultPlan        `json:"faults,omitempty"`
	Vehicles     []jsonVehicleSpec `json:"vehicles"`
}

// MarshalFleetJSON serializes a Fleet to the JSON schema. The Trace
// field is runtime-only and is not serialized.
func MarshalFleetJSON(f Fleet) ([]byte, error) {
	j := jsonFleetSpec{
		Seed:         f.Seed,
		Workers:      f.Workers,
		JobTimeoutMS: int64(f.JobTimeout / time.Millisecond),
		Faults:       f.Faults,
	}
	for _, v := range f.Vehicles {
		jv := jsonVehicleSpec{
			Name:            v.Name,
			Engine:          v.Engine,
			Pattern:         v.Pattern,
			Slots:           v.Slots,
			ConvergeWithin:  v.ConvergeWithin,
			Seconds:         v.Seconds,
			ChargeFromEmpty: v.ChargeFromEmpty,
			Replicate:       v.Replicate,
		}
		for _, p := range v.Periods {
			jv.Periods = append(jv.Periods, int(p))
		}
		if v.Network != nil {
			nc := configToJSON(*v.Network)
			jv.Network = &nc
		}
		if v.HasSeed {
			seed := v.Seed
			jv.Seed = &seed
		}
		jv.Faults = v.Faults
		j.Vehicles = append(j.Vehicles, jv)
	}
	return json.MarshalIndent(j, "", "  ")
}

// UnmarshalFleetJSON parses a fleet specification and checks what
// parsing can: the JSON itself, fault plans, network configs and a
// non-empty vehicle list. It compiles nothing, so an unknown pattern,
// engine or period is reported by Fleet.Jobs (and so by Fleet.Run),
// still before any job runs.
func UnmarshalFleetJSON(data []byte) (Fleet, error) {
	var j jsonFleetSpec
	if err := json.Unmarshal(data, &j); err != nil {
		return Fleet{}, fmt.Errorf("arachnet: parse fleet spec: %w", err)
	}
	f := Fleet{
		Seed:       j.Seed,
		Workers:    j.Workers,
		JobTimeout: time.Duration(j.JobTimeoutMS) * time.Millisecond,
		Faults:     j.Faults,
	}
	if j.Faults != nil {
		if err := j.Faults.Validate(); err != nil {
			return Fleet{}, fmt.Errorf("arachnet: fleet faults: %w", err)
		}
	}
	for i, jv := range j.Vehicles {
		v := VehicleSpec{
			Name:            jv.Name,
			Engine:          jv.Engine,
			Pattern:         jv.Pattern,
			Slots:           jv.Slots,
			ConvergeWithin:  jv.ConvergeWithin,
			Seconds:         jv.Seconds,
			ChargeFromEmpty: jv.ChargeFromEmpty,
			Replicate:       jv.Replicate,
		}
		for _, p := range jv.Periods {
			v.Periods = append(v.Periods, Period(p))
		}
		if jv.Network != nil {
			cfg, err := jv.Network.toConfig()
			if err != nil {
				return Fleet{}, fmt.Errorf("arachnet: fleet vehicle %d (%q): %w", i, jv.Name, err)
			}
			v.Network = &cfg
		}
		if jv.Seed != nil {
			v.Seed = *jv.Seed
			v.HasSeed = true
		}
		if jv.Faults != nil {
			if err := jv.Faults.Validate(); err != nil {
				return Fleet{}, fmt.Errorf("arachnet: fleet vehicle %d (%q) faults: %w", i, jv.Name, err)
			}
			v.Faults = jv.Faults
		}
		f.Vehicles = append(f.Vehicles, v)
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
