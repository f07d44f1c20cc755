package main

// Tenant admission surface tests at the HTTP boundary: X-Tenant-Id
// validation, the 429 quota contract (code, Retry-After, per-tenant
// /statsz accounting), per-tenant /metrics series, cross-tenant cache
// sharing, and the -qos-config loader.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"gpa"
)

func TestClientTenant(t *testing.T) {
	cases := []struct {
		header, want string
	}{
		{"", ""},
		{"acme", "acme"},
		{"team-a_b.c:1", "team-a_b.c:1"},
		{"evil header", ""},           // unsafe charset
		{strings.Repeat("x", 65), ""}, // oversize
		{strings.Repeat("x", 64), strings.Repeat("x", 64)},
		{"tab\there", ""},
	}
	for _, tc := range cases {
		r, _ := http.NewRequest("POST", "/v1/advise", nil)
		if tc.header != "" {
			r.Header.Set(tenantHeader, tc.header)
		}
		if got := clientTenant(nil, r); got != tc.want {
			t.Errorf("clientTenant(%q) = %q, want %q", tc.header, got, tc.want)
		}
	}
}

func TestJitterSecondsClamps(t *testing.T) {
	for i := 0; i < 50; i++ {
		if s := jitterSeconds(time.Millisecond); s != 1 {
			t.Fatalf("jitterSeconds(1ms) = %d, want clamp to 1", s)
		}
		if s := jitterSeconds(time.Hour); s != 60 {
			t.Fatalf("jitterSeconds(1h) = %d, want clamp to 60", s)
		}
		if s := jitterSeconds(10 * time.Second); s < 8 || s > 13 {
			t.Fatalf("jitterSeconds(10s) = %d, want within ±25%% (+ceil)", s)
		}
	}
}

// TestRetryAfterRatesRunsAlone: the 503 backlog hint rates the queue
// by finished runs, the only completions that free a slot for a queued
// run. Memory hits and coalesced followers never enter the queue, so
// 1000 hits/s riding alongside must not shrink the hint: 10 queued runs
// draining at 2 runs/s read the same ≈18 s (the EWMA's first step is
// 0.3 · 2 runs/s) with or without them, not the 1 s floor.
func TestRetryAfterRatesRunsAlone(t *testing.T) {
	hint := func(st gpa.EngineStats) int {
		h := &retryHints{lastAt: time.Now().Add(-time.Second)}
		return h.overloadSeconds(st)
	}
	backlog := 11 / (0.3 * 2) // (Queued+1) / rate, seconds
	lo, hi := int(backlog*0.75), int(backlog*1.25)+1
	runsOnly := hint(gpa.EngineStats{Runs: 2, Queued: 10})
	withHits := hint(gpa.EngineStats{Runs: 2, Hits: 1000, Coalesced: 40, Queued: 10})
	if runsOnly < lo || runsOnly > hi || withHits < lo || withHits > hi {
		t.Fatalf("Retry-After runs only = %ds, with 1000 hits/s = %ds; want both in [%d, %d]",
			runsOnly, withHits, lo, hi)
	}
}

func TestLoadQoSConfig(t *testing.T) {
	if cfg, err := loadQoSConfig(""); err != nil || cfg != nil {
		t.Fatalf("no file must yield nil config: %v %v", cfg, err)
	}

	path := filepath.Join(t.TempDir(), "qos.json")
	if err := os.WriteFile(path, []byte(`{
		"tenants": {"acme": {"weight": 3, "ratePerSec": 10, "burst": 20}},
		"interactiveReserve": 1
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := loadQoSConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Tenants["acme"].Weight != 3 || cfg.InteractiveReserve != 1 {
		t.Fatalf("file config lost fields: %+v", cfg)
	}

	// A typoed key in the file fails loudly at startup, not at runtime.
	bad := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(bad, []byte(`{"tenant": {}}`), 0o644)
	if _, err := loadQoSConfig(bad); err == nil {
		t.Fatal("unknown field accepted")
	}
	// So does a config that still tunes the retired brownout controller.
	brown := filepath.Join(t.TempDir(), "brownout.json")
	os.WriteFile(brown, []byte(`{"brownout": {"p99ThresholdMs": 150}}`), 0o644)
	if _, err := loadQoSConfig(brown); err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Fatalf("brownout key accepted: %v", err)
	}
	if _, err := loadQoSConfig(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("a missing file accepted")
	}
}

// postTenant posts a JSON body with an X-Tenant-Id header.
func postTenant(t *testing.T, url, tenant string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest("POST", url, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		hr.Header.Set(tenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestQuotaMapsTo429 pins the quota contract end-to-end: an over-quota
// tenant gets 429 quota_exceeded with a usable integer Retry-After,
// its shed is billed to it alone at /statsz, and other tenants keep
// being served.
func TestQuotaMapsTo429(t *testing.T) {
	cfg := gpa.QoSConfig{Tenants: map[string]gpa.TenantQoSConfig{"metered": {RatePerSec: 0.001, Burst: 1}}}
	ts := httptest.NewServer(newServer(gpa.NewEngine(&gpa.EngineOptions{QoS: &cfg})))
	t.Cleanup(ts.Close)

	req := map[string]any{"asm": testKernelSrc, "gridX": 160, "blockX": 256, "seed": 9}
	if resp, body := postTenant(t, ts.URL+"/v1/advise", "metered", req); resp.StatusCode != 200 {
		t.Fatalf("first metered request (within burst): %d: %s", resp.StatusCode, body)
	}
	resp, body := postTenant(t, ts.URL+"/v1/advise", "metered", req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status = %d, want 429: %s", resp.StatusCode, body)
	}
	ra := resp.Header.Get("Retry-After")
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 || secs > 60 {
		t.Fatalf("429 Retry-After = %q, want integer seconds in [1,60]", ra)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error.Code != "quota_exceeded" {
		t.Fatalf("429 body code = %q (%s)", eb.Error.Code, body)
	}

	// Another tenant rides the warm cache, unmetered and unshed.
	if resp, body := postTenant(t, ts.URL+"/v1/advise", "free", req); resp.StatusCode != 200 {
		t.Fatalf("free tenant: %d: %s", resp.StatusCode, body)
	}

	var st statszResponse
	getJSON(t, ts.URL+"/statsz", &st)
	if st.QuotaShed != 1 || st.Tenants["metered"].QuotaShed != 1 {
		t.Fatalf("quotaShed = %d (metered %d), want 1/1", st.QuotaShed, st.Tenants["metered"].QuotaShed)
	}
	if st.Tenants["free"].Served != 1 || st.Tenants["free"].QuotaShed != 0 {
		t.Fatalf("free tenant stats = %+v", st.Tenants["free"])
	}
}

// TestTenantAccountingAndMetrics: two tenants submitting the same
// kernel share one simulation (the cross-tenant singleflight/cache
// contract at the HTTP surface) while /statsz and /metrics report each
// tenant's own served count.
func TestTenantAccountingAndMetrics(t *testing.T) {
	ts := newTestServer(t)
	req := map[string]any{"asm": testKernelSrc, "gridX": 160, "blockX": 256, "seed": 9}
	if resp, body := postTenant(t, ts.URL+"/v1/advise", "alpha", req); resp.StatusCode != 200 {
		t.Fatalf("alpha: %d: %s", resp.StatusCode, body)
	}
	var out gpa.Result
	resp, body := postTenant(t, ts.URL+"/v1/advise", "beta", req)
	if resp.StatusCode != 200 {
		t.Fatalf("beta: %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Cached {
		t.Error("different tenants must not split the cache")
	}

	var st statszResponse
	getJSON(t, ts.URL+"/statsz", &st)
	if st.Runs != 1 {
		t.Fatalf("runs = %d, want 1 (tenants share the simulation)", st.Runs)
	}
	if a, b := st.Tenants["alpha"].Served, st.Tenants["beta"].Served; a != 1 || b != 1 {
		t.Fatalf("served alpha=%d beta=%d, want 1/1", a, b)
	}

	text := scrape(t, ts.URL)
	for _, want := range []string{
		`gpa_tenant_served_total{tenant="alpha"} 1`,
		`gpa_tenant_served_total{tenant="beta"} 1`,
		`gpa_tenant_weight{tenant="alpha"} 1`,
		`gpa_engine_interactive_queued `,
		`gpa_engine_batch_queued `,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestUnsafeTenantSharesDefault: header garbage cannot mint tenant
// state; it lands on the default tenant.
func TestUnsafeTenantSharesDefault(t *testing.T) {
	ts := newTestServer(t)
	req := map[string]any{"asm": testKernelSrc, "gridX": 160, "blockX": 256, "seed": 9}
	if resp, body := postTenant(t, ts.URL+"/v1/advise", "not a tenant!!", req); resp.StatusCode != 200 {
		t.Fatalf("unsafe tenant request: %d: %s", resp.StatusCode, body)
	}
	var st statszResponse
	getJSON(t, ts.URL+"/statsz", &st)
	if st.Tenants["default"].Served != 1 {
		t.Fatalf("default tenant served = %d, want 1 (unsafe ID must collapse): %+v",
			st.Tenants["default"].Served, st.Tenants)
	}
	if len(st.Tenants) != 1 {
		t.Fatalf("unsafe ID minted tenant state: %+v", st.Tenants)
	}
}
