package arachnet

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// MarshalConfigJSON serializes a NetworkConfig to the JSON schema.
func MarshalConfigJSON(cfg NetworkConfig) ([]byte, error) {
	return json.MarshalIndent(cfg, "", "  ")
}

// SaveConfigFile writes the configuration as JSON.
func SaveConfigFile(path string, cfg NetworkConfig) error {
	data, err := MarshalConfigJSON(cfg)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func TestConfigJSONRoundTrip(t *testing.T) {
	cfg := DefaultNetworkConfig()
	cfg.Seed = 99
	cfg.Tags[0].WithSensor = true
	data, err := MarshalConfigJSON(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalConfigJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != 99 || len(got.Tags) != len(cfg.Tags) {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if !got.Tags[0].WithSensor {
		t.Error("sensor flag lost")
	}
	if got.SlotDuration != cfg.SlotDuration || got.DLRate != cfg.DLRate {
		t.Error("timing fields lost")
	}
	// A network must be buildable from the round-tripped config.
	if _, err := NewNetwork(got); err != nil {
		t.Fatal(err)
	}
}

func TestConfigJSONDefaults(t *testing.T) {
	// Minimal document: defaults fill in.
	cfg, err := UnmarshalConfigJSON([]byte(`{"tags":[{"tid":1,"period":4,"start_charged":true}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.SlotDuration != Second {
		t.Errorf("slot duration default %v", cfg.SlotDuration)
	}
	if cfg.DLRate != 250 {
		t.Errorf("DL rate default %v", cfg.DLRate)
	}
	if cfg.ULDivider != 32 {
		t.Errorf("UL divider default %v", cfg.ULDivider)
	}
}

func TestConfigJSONRejectsInvalid(t *testing.T) {
	cases := []string{
		`{`,                               // syntax
		`{"tags":[]}`,                     // no tags
		`{"tags":[{"tid":0,"period":4}]}`, // bad TID
		`{"tags":[{"tid":1,"period":3}]}`, // bad period
		`{"tags":[{"tid":1,"period":4},{"tid":1,"period":4}]}`, // dup
	}
	for _, c := range cases {
		if _, err := UnmarshalConfigJSON([]byte(c)); err == nil {
			t.Errorf("accepted invalid config %q", c)
		}
	}
}

func TestConfigFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "net.json")
	cfg := DefaultNetworkConfig()
	if err := SaveConfigFile(path, cfg); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"tags"`) {
		t.Error("file missing tags key")
	}
	got, err := LoadConfigFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Tags) != 12 {
		t.Errorf("%d tags", len(got.Tags))
	}
	if _, err := LoadConfigFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestConfigRejectsOverCapacity(t *testing.T) {
	// Eq. 1: three period-2 tags offer U = 1.5.
	cfg := NetworkConfig{Seed: 1, Tags: []TagSpec{
		{TID: 1, Period: 2, StartCharged: true},
		{TID: 2, Period: 2, StartCharged: true},
		{TID: 3, Period: 2, StartCharged: true},
	}}
	if _, err := NewNetwork(cfg); err == nil {
		t.Error("over-capacity deployment accepted")
	}
}
