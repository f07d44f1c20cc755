package qos

import (
	"strings"
	"testing"
)

func TestParseConfigStrict(t *testing.T) {
	good := []byte(`{
		"tenants": {
			"a": {"weight": 2, "ratePerSec": 50, "burst": 10},
			"b": {"weight": 1}
		},
		"defaultTenant": {"weight": 1},
		"interactiveReserve": 1
	}`)
	cfg, err := ParseConfig(good)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Tenants["a"].Weight != 2 || cfg.Tenants["a"].RatePerSec != 50 {
		t.Fatalf("parsed config lost tenant a: %+v", cfg.Tenants["a"])
	}
	if cfg.InteractiveReserve != 1 {
		t.Fatalf("parsed config lost top-level fields: %+v", cfg)
	}

	// A typoed key must fail loudly, not run with silent defaults.
	if _, err := ParseConfig([]byte(`{"tenant": {}}`)); err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Fatalf("unknown field accepted: %v", err)
	}
	// A config that still tunes the retired brownout controller fails
	// at startup instead of silently running without it.
	if _, err := ParseConfig([]byte(`{"brownout": {"p99ThresholdMs": 250}}`)); err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Fatalf("brownout key accepted: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []struct {
		name string
		json string
	}{
		{"negative weight", `{"tenants": {"a": {"weight": -1}}}`},
		{"negative rate", `{"tenants": {"a": {"ratePerSec": -5}}}`},
		{"burst without rate", `{"tenants": {"a": {"burst": 10}}}`},
		{"empty tenant id", `{"tenants": {"": {"weight": 1}}}`},
		{"negative reserve", `{"interactiveReserve": -1}`},
	}
	for _, tc := range bad {
		if _, err := ParseConfig([]byte(tc.json)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestBuilderValidates: a Config built in Go is a struct literal, and
// Validate (what service.New and ParseConfig gate on) is the one check
// it passes through, nested tenant errors included.
func TestBuilderValidates(t *testing.T) {
	if err := (TenantConfig{Weight: -1}).Validate(); err == nil {
		t.Fatal("Validate accepted a negative weight")
	}
	bad := Config{Tenants: map[string]TenantConfig{"a": {Burst: 5}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("Validate accepted burst without rate")
	}
	bad = Config{DefaultTenant: TenantConfig{RatePerSec: -1}}
	if err := bad.Validate(); err == nil {
		t.Fatal("Validate accepted a negative default-tenant rate")
	}
	good := Config{
		Tenants:            map[string]TenantConfig{"a": {Weight: 3, RatePerSec: 100, Burst: 200}},
		DefaultTenant:      TenantConfig{Weight: 1},
		InteractiveReserve: 2,
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWithDefaults(t *testing.T) {
	cfg := Config{Tenants: map[string]TenantConfig{"a": {RatePerSec: 10}}}.withDefaults()
	if cfg.DefaultTenant.Weight != 1 || cfg.MaxTenants != 64 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if a := cfg.Tenants["a"]; a.Weight != 1 || a.Burst != 10 {
		t.Fatalf("tenant defaults not applied (burst should be one second of rate): %+v", a)
	}
}

func TestLaneString(t *testing.T) {
	if LaneInteractive.String() != "interactive" || LaneBatch.String() != "batch" {
		t.Fatal("lane names changed; they are the names operators see wherever a Lane is printed")
	}
}
