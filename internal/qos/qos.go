// Package qos is the tenant-aware admission layer in front of the
// serving engine: per-tenant queues scheduled by deficit-weighted
// round robin, two priority lanes (interactive work preempts queued
// batch work up to a configurable reserve), per-tenant token-bucket
// quotas, and a queue-delay brownout controller that sheds batch-lane
// load before interactive work when the engine saturates. Relative to
// the paper's Figure 2 it sits entirely upstream of the pipeline —
// admission decides who runs the measurement/blame/advise stages next,
// never what any stage computes, so nothing here may feed a digest or
// stage key (tenant and lane are transport-only metadata, excluded
// from every content-addressed key exactly like TraceID).
//
// The configuration surface is plain data with one check: a Config (or
// TenantConfig) is a struct literal in Go or parsed from JSON by
// ParseConfig, and either way it passes Validate before a Scheduler sees
// it (ParseConfig and service.New call it), so a Scheduler never
// observes an invalid or half-defaulted configuration.
package qos

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
)

// Lane is an admission priority lane. The zero value is
// LaneInteractive so plain library callers get the low-latency lane
// without opting in; cmd/gpad routes /v1/batch and /v1/sweep to
// LaneBatch.
type Lane int

const (
	// LaneInteractive is the low-latency lane (advise/profile): it may
	// use every worker slot and is the last lane the brownout
	// controller sheds.
	LaneInteractive Lane = iota
	// LaneBatch is the throughput lane (batch/sweep): its concurrency
	// is capped at workers minus the interactive reserve, queued batch
	// work is abandoned first on shutdown, and the brownout controller
	// sheds it first under overload.
	LaneBatch
	numLanes
)

// String names the lane ("interactive", "batch").
func (l Lane) String() string {
	switch l {
	case LaneInteractive:
		return "interactive"
	case LaneBatch:
		return "batch"
	}
	return fmt.Sprintf("Lane(%d)", int(l))
}

// TenantConfig is one tenant's admission parameters.
type TenantConfig struct {
	// Weight is the tenant's deficit-round-robin share (≥1; 0 means
	// "use the default of 1"). Under saturation a tenant with weight 3
	// completes three jobs for every one job of a weight-1 tenant.
	Weight int `json:"weight,omitempty"`
	// RatePerSec is the tenant's token-bucket refill rate in requests
	// per second (0 = no quota). Every request — cache hits and
	// coalesced singleflight followers included — costs one token, so
	// quota accounting bills work to whoever asked for it, not to
	// whoever happened to simulate it.
	RatePerSec float64 `json:"ratePerSec,omitempty"`
	// Burst is the bucket depth (0 with a nonzero rate = one second's
	// worth of tokens, at least 1).
	Burst float64 `json:"burst,omitempty"`
}

// Validate reports the first invalid field.
func (c TenantConfig) Validate() error {
	if c.Weight < 0 {
		return fmt.Errorf("qos: tenant weight %d is negative", c.Weight)
	}
	if c.RatePerSec < 0 {
		return fmt.Errorf("qos: tenant ratePerSec %v is negative", c.RatePerSec)
	}
	if c.Burst < 0 {
		return fmt.Errorf("qos: tenant burst %v is negative", c.Burst)
	}
	if c.Burst > 0 && c.RatePerSec == 0 {
		return errors.New("qos: tenant burst set without ratePerSec (a bucket that never refills)")
	}
	return nil
}

// withDefaults resolves the zero-value conventions.
func (c TenantConfig) withDefaults() TenantConfig {
	if c.Weight == 0 {
		c.Weight = 1
	}
	if c.RatePerSec > 0 && c.Burst == 0 {
		c.Burst = c.RatePerSec
		if c.Burst < 1 {
			c.Burst = 1
		}
	}
	return c
}

// BrownoutConfig tunes the overload self-defense controller. The
// controller watches the p99 of queued-wait over a sliding window of
// grant observations; when it exceeds P99ThresholdMs the brownout
// level steps up and a deterministic fraction level/MaxLevel of
// batch-lane arrivals is shed. Interactive arrivals are shed only at
// MaxLevel and only once the interactive queue itself has grown past
// InteractiveShedDepth — the "reserve exhausted" condition.
type BrownoutConfig struct {
	// P99ThresholdMs is the queued-wait p99 (milliseconds) above which
	// the level steps up; the level steps back down when p99 falls
	// under half the threshold. 0 disables the controller.
	P99ThresholdMs float64 `json:"p99ThresholdMs,omitempty"`
	// Window is how many recent grant waits the p99 is computed over
	// (0 = 256).
	Window int `json:"window,omitempty"`
	// ReevalEvery re-evaluates the level every N observations (0 = 64).
	ReevalEvery int `json:"reevalEvery,omitempty"`
	// MaxLevel is the number of brownout steps (0 = 8). At level L the
	// batch shed fraction is L/MaxLevel.
	MaxLevel int `json:"maxLevel,omitempty"`
	// InteractiveShedDepth is the interactive queue depth beyond which
	// a MaxLevel brownout sheds interactive arrivals too (0 = 64;
	// negative = never shed interactive).
	InteractiveShedDepth int `json:"interactiveShedDepth,omitempty"`
}

// Validate reports the first invalid field.
func (c BrownoutConfig) Validate() error {
	if c.P99ThresholdMs < 0 {
		return fmt.Errorf("qos: brownout p99ThresholdMs %v is negative", c.P99ThresholdMs)
	}
	if c.Window < 0 || c.ReevalEvery < 0 || c.MaxLevel < 0 {
		return errors.New("qos: brownout window/reevalEvery/maxLevel must be non-negative")
	}
	return nil
}

func (c BrownoutConfig) withDefaults() BrownoutConfig {
	if c.Window == 0 {
		c.Window = 256
	}
	if c.ReevalEvery == 0 {
		c.ReevalEvery = 64
	}
	if c.MaxLevel == 0 {
		c.MaxLevel = 8
	}
	if c.InteractiveShedDepth == 0 {
		c.InteractiveShedDepth = 64
	}
	return c
}

// DefaultTenantName is the tenant requests without an X-Tenant-Id (or
// an empty Request.Tenant) are accounted under.
const DefaultTenantName = "default"

// OverflowTenantName is the shared accounting class tenants collapse
// into once MaxTenants distinct IDs have been seen — the scheduler's
// self-defense against unbounded label cardinality from adversarial or
// misconfigured clients.
const OverflowTenantName = "other"

// Config is the full admission configuration for one scheduler.
type Config struct {
	// Tenants maps tenant IDs to their explicit config; IDs not listed
	// get DefaultTenant.
	Tenants map[string]TenantConfig `json:"tenants,omitempty"`
	// DefaultTenant applies to every tenant without an explicit entry
	// (zero value: weight 1, no quota).
	DefaultTenant TenantConfig `json:"defaultTenant"`
	// InteractiveReserve is the number of worker slots batch-lane work
	// may never occupy (clamped to workers-1). 0 = no reserve: lanes
	// share all slots and differ only in scheduling priority and
	// shutdown/brownout treatment.
	InteractiveReserve int `json:"interactiveReserve,omitempty"`
	// MaxTenants bounds distinct dynamically-created tenant states
	// (0 = 64); beyond it new IDs share the "other" class.
	MaxTenants int `json:"maxTenants,omitempty"`
	// Brownout tunes overload self-defense (zero value: disabled).
	Brownout BrownoutConfig `json:"brownout"`
}

// Validate reports the first invalid field anywhere in the config.
func (c Config) Validate() error {
	if c.InteractiveReserve < 0 {
		return fmt.Errorf("qos: interactiveReserve %d is negative", c.InteractiveReserve)
	}
	if c.MaxTenants < 0 {
		return fmt.Errorf("qos: maxTenants %d is negative", c.MaxTenants)
	}
	if err := c.DefaultTenant.Validate(); err != nil {
		return fmt.Errorf("defaultTenant: %w", err)
	}
	for name, tc := range c.Tenants {
		if name == "" {
			return errors.New("qos: tenant with empty ID (use defaultTenant instead)")
		}
		if err := tc.Validate(); err != nil {
			return fmt.Errorf("tenant %q: %w", name, err)
		}
	}
	return c.Brownout.Validate()
}

func (c Config) withDefaults() Config {
	c.DefaultTenant = c.DefaultTenant.withDefaults()
	if c.MaxTenants == 0 {
		c.MaxTenants = 64
	}
	c.Brownout = c.Brownout.withDefaults()
	tenants := make(map[string]TenantConfig, len(c.Tenants))
	for name, tc := range c.Tenants {
		tenants[name] = tc.withDefaults()
	}
	c.Tenants = tenants
	return c
}

// ParseConfig decodes a JSON admission config strictly (unknown fields
// are errors, so a typoed key fails loudly instead of silently running
// with defaults) and validates it.
func ParseConfig(data []byte) (Config, error) {
	var c Config
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Config{}, fmt.Errorf("qos: parse config: %w", err)
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}
