package main

// Tenant-facing admission surface for gpad: the X-Tenant-Id header,
// the -qos-config loader, computed Retry-After hints for shed
// responses, and the per-tenant /metrics series. Tenant IDs are
// transport-level like trace IDs — never part of the cache digest or
// any stage key (pinned by TestTenantExcludedFromDigest) — so two
// tenants submitting the same kernel still share one simulation while
// each is billed and counted for its own request.

import (
	"crypto/rand"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"os"
	"slices"
	"sync"
	"time"

	"gpa"
	"gpa/internal/obs"
)

// tenantHeader carries the caller's tenant identity. Absent, oversize,
// or unsafe values collapse into the shared "default" tenant instead
// of being rejected: admission identity is a scheduling hint, and
// garbage must not be able to fail requests or mint tenant state.
const tenantHeader = "X-Tenant-Id"

// maxTenantIDLen caps accepted tenant IDs (same bound as trace IDs).
const maxTenantIDLen = 64

// clientTenant returns the request's tenant ID when it is safe to echo
// into logs and metric labels, else "" — the engine's default tenant —
// and notes a named tenant on the request's log line. A handler calls it
// once per request, however many jobs the request carries.
func clientTenant(w http.ResponseWriter, r *http.Request) string {
	id := r.Header.Get(tenantHeader)
	if !safeID(id, maxTenantIDLen) {
		return ""
	}
	note(w, slog.String("tenant", id))
	return id
}

// loadQoSConfig reads the engine's QoS config from the -qos-config file
// (strict JSON, unknown fields rejected); no file means the engine's
// defaults.
func loadQoSConfig(path string) (*gpa.QoSConfig, error) {
	if path == "" {
		return nil, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cfg, err := gpa.ParseQoSConfig(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &cfg, nil
}

// retryHints turns engine state into Retry-After values for shed
// responses. The 503 hint is the current queue depth divided by an
// EWMA of the observed run-completion rate — "when will the backlog
// have drained" — and the 429 hint is the quota bucket's own computed
// refill time; both are jittered so a synchronized client fleet does
// not retry in one thundering herd.
type retryHints struct {
	mu       sync.Mutex
	lastAt   time.Time
	lastDone int64
	rate     float64 // jobs/sec, EWMA
}

// overloadSeconds estimates how long the current backlog needs to
// drain. Only a finished run frees a worker slot for a queued run —
// memory hits and coalesced followers never enter the queue — so the
// rate counts runs alone. With no observed rate yet (cold server) it
// falls back to the 1s floor the static header used to advertise.
func (h *retryHints) overloadSeconds(st gpa.EngineStats) int {
	done := st.Runs
	now := time.Now()

	h.mu.Lock()
	if h.lastAt.IsZero() {
		h.lastAt, h.lastDone = now, done
	} else if elapsed := now.Sub(h.lastAt).Seconds(); elapsed >= 0.1 {
		sample := float64(done-h.lastDone) / elapsed
		if sample >= 0 {
			const alpha = 0.3
			h.rate = alpha*sample + (1-alpha)*h.rate
		}
		h.lastAt, h.lastDone = now, done
	}
	rate := h.rate
	h.mu.Unlock()

	if rate <= 0 {
		return jitterSeconds(time.Second)
	}
	return jitterSeconds(time.Duration(float64(st.Queued+1) / rate * float64(time.Second)))
}

// jitterSeconds spreads d by ±25% and clamps to [1s, 60s], returning
// whole seconds for the Retry-After header. Randomness here never
// feeds a digest; it exists to de-synchronize retrying clients.
func jitterSeconds(d time.Duration) int {
	var b [1]byte
	factor := 1.0
	if _, err := rand.Read(b[:]); err == nil {
		factor = 0.75 + 0.5*float64(b[0])/255
	}
	s := int(math.Ceil(d.Seconds() * factor))
	if s < 1 {
		return 1
	}
	if s > 60 {
		return 60
	}
	return s
}

// retryAfterFor computes the Retry-After value for one shed response:
// quota rejections carry their bucket's refill time, everything else
// (queue_full, shutting_down) gets the backlog estimate.
func (s *server) retryAfterFor(err error) int {
	var qe *gpa.QuotaError
	if errors.As(err, &qe) && qe.RetryAfter > 0 {
		return jitterSeconds(qe.RetryAfter)
	}
	return s.hints.overloadSeconds(s.eng.Stats())
}

// tenantFields are the per-tenant series, one family each.
var tenantFields = []struct {
	metric, help, typ string
	value             func(gpa.TenantStats) float64
}{
	{"gpa_tenant_weight", "Tenant DWRR weight.", "gauge",
		func(t gpa.TenantStats) float64 { return float64(t.Weight) }},
	{"gpa_tenant_queued", "Jobs queued for admission by tenant.", "gauge",
		func(t gpa.TenantStats) float64 { return float64(t.Queued) }},
	{"gpa_tenant_served_total", "Requests served by tenant (cache hits and coalesced followers included).", "counter",
		func(t gpa.TenantStats) float64 { return float64(t.Served) }},
	{"gpa_tenant_shed_total", "Jobs shed at the queue bound by tenant.", "counter",
		func(t gpa.TenantStats) float64 { return float64(t.Shed) }},
	{"gpa_tenant_quota_shed_total", "Jobs shed over quota by tenant.", "counter",
		func(t gpa.TenantStats) float64 { return float64(t.QuotaShed) }},
	{"gpa_tenant_dropped_total", "Queued jobs abandoned by their callers by tenant.", "counter",
		func(t gpa.TenantStats) float64 { return float64(t.Dropped) }},
}

// writeTenantMetrics renders the per-tenant admission series. The
// label set is closed by the engine itself: past the configured
// MaxTenants, unknown IDs collapse into the "other" tenant, so scrape
// cardinality is bounded no matter what clients send.
func writeTenantMetrics(p *obs.PromWriter, st *gpa.EngineStats) {
	if len(st.Tenants) == 0 {
		return
	}
	names := make([]string, 0, len(st.Tenants))
	for name := range st.Tenants {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, f := range tenantFields {
		p.Header(f.metric, f.help, f.typ)
		for _, name := range names {
			p.Metric(f.metric, []obs.Label{{Name: "tenant", Value: name}}, f.value(st.Tenants[name]))
		}
	}
}
