package core

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestConfigJSONRoundTrip(t *testing.T) {
	cfg := DefaultConfig(4)
	if err := cfg.SetPolicy("FLUSH"); err != nil {
		t.Fatal(err)
	}
	cfg.IQSize = 128
	cfg.Warmup = 12345
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got Config
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.IQSize != 128 || got.Threads != 4 || got.Warmup != 12345 {
		t.Fatalf("fields lost: %+v", got)
	}
	if got.Policy == nil || got.Policy.Name() != "FLUSH" {
		t.Fatal("policy lost in round trip")
	}
	if got.DL1 != cfg.DL1 || got.DTLB != cfg.DTLB {
		t.Fatal("nested memory configuration lost")
	}
	// A round-tripped config must still drive a simulation.
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigJSONPolicyByName(t *testing.T) {
	data, err := json.Marshal(DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"Policy":"ICOUNT"`) {
		t.Fatalf("policy not serialized by name: %s", data)
	}
}

func TestConfigJSONUnknownPolicy(t *testing.T) {
	var cfg Config
	err := json.Unmarshal([]byte(`{"Threads":1,"Policy":"NOPE"}`), &cfg)
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestConfigJSONUnknownField: a misspelled knob is an error, not a
// silently kept default.
func TestConfigJSONUnknownField(t *testing.T) {
	cfg := DefaultConfig(2)
	if err := json.Unmarshal([]byte(`{"IQSzie":48}`), &cfg); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestConfigJSONEmptyPolicy(t *testing.T) {
	var cfg Config
	if err := json.Unmarshal([]byte(`{"Threads":2}`), &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Policy != nil {
		t.Fatal("absent policy should stay nil")
	}
	if cfg.Threads != 2 {
		t.Fatal("fields lost")
	}
}
