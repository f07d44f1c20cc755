package main

// Observability surface tests: /metrics is well-formed Prometheus text
// whose engine counters agree with /statsz, trace IDs are echoed
// (header and body) or minted, error responses land in the request
// metrics with their stable codes, and concurrent scrapes race
// cleanly against inflight jobs.

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"gpa"
)

// scrape fetches /metrics and returns the raw exposition text.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("/metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// promSampleLine matches one Prometheus text-format sample.
var promSampleLine = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? ((\+|-)?(Inf|[0-9.eE+-]+))$`)

// parseMetrics asserts the scrape is well-formed and returns unlabeled
// samples as name -> value.
func parseMetrics(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := promSampleLine.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("malformed exposition line: %q", line)
			continue
		}
		if m[2] != "" {
			continue // labeled series are checked by substring
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Errorf("bad sample value in %q: %v", line, err)
			continue
		}
		out[m[1]] = v
	}
	return out
}

// TestMetricsMatchesStatsz drives a known request sequence (cold
// advise, warm advise, one taxonomy error) and asserts every numeric
// /statsz counter appears at /metrics with the same value.
func TestMetricsMatchesStatsz(t *testing.T) {
	ts := newTestServer(t)
	req := map[string]any{"asm": testKernelSrc, "gridX": 160, "blockX": 256, "seed": 9}
	if resp, body := postJSON(t, ts.URL+"/v1/advise", req); resp.StatusCode != 200 {
		t.Fatalf("cold advise: %d: %s", resp.StatusCode, body)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/advise", req); resp.StatusCode != 200 {
		t.Fatalf("warm advise: %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/advise",
		map[string]any{"asm": testKernelSrc, "arch": "no-such-gpu"}); resp.StatusCode != 400 {
		t.Fatalf("unknown arch must 400, got %d", resp.StatusCode)
	}

	// /statsz first, then the scrape: every /statsz counter is already
	// final (no jobs in flight), so the values must agree exactly.
	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	metrics := parseMetrics(t, scrape(t, ts.URL))
	if metrics["gpa_engine_runs_total"] != 1 {
		t.Errorf("runs_total = %v, want 1", metrics["gpa_engine_runs_total"])
	}
	if metrics["gpa_engine_hits_total"] != 1 {
		t.Errorf("hits_total = %v, want 1", metrics["gpa_engine_hits_total"])
	}
	// The counters later PRs added must be on both surfaces, not merely
	// agree where present.
	for _, name := range []string{"panics", "stageDecodes"} {
		if _, ok := stats[name]; !ok {
			t.Errorf("/statsz has no %q counter", name)
		}
	}
	for name, raw := range stats {
		v, ok := raw.(float64)
		if !ok || name == "uptimeSeconds" {
			// uptime advances between the two reads.
			continue
		}
		metric := "gpa_engine_" + metricSnake(name)
		if !engineGauges[name] {
			metric += "_total"
		}
		got, present := metrics[metric]
		if !present {
			t.Errorf("/statsz field %q has no /metrics series %q", name, metric)
			continue
		}
		if got != v {
			t.Errorf("%s = %v, but /statsz %s = %v", metric, got, name, v)
		}
	}
}

// metricSnake mirrors obs.MetricName for the parity test without
// importing the internal package into every assertion.
func metricSnake(camel string) string {
	var b strings.Builder
	for _, r := range camel {
		if r >= 'A' && r <= 'Z' {
			b.WriteByte('_')
			b.WriteRune(r - 'A' + 'a')
			continue
		}
		b.WriteRune(r)
	}
	return b.String()
}

// TestMetricsStageAndRequestSeries pins the labeled series: per-stage
// latency histograms observe a cold run, and error responses are
// counted by route/status/code.
func TestMetricsStageAndRequestSeries(t *testing.T) {
	ts := newTestServer(t)
	req := map[string]any{"asm": testKernelSrc, "gridX": 160, "blockX": 256, "seed": 9}
	postJSON(t, ts.URL+"/v1/advise", req)
	postJSON(t, ts.URL+"/v1/advise", map[string]any{"asm": testKernelSrc, "arch": "no-such-gpu"})
	postJSON(t, ts.URL+"/v1/advise", map[string]any{"asm": "not sass at all"})

	text := scrape(t, ts.URL)
	for _, want := range []string{
		// The first request assembles and the third fails to; the second
		// fails on its arch before its kernel is built.
		`gpa_stage_duration_seconds_count{stage="assemble"} 2`,
		`gpa_stage_duration_seconds_count{stage="simulate"} 1`,
		`gpa_stage_duration_seconds_count{stage="blame"} 1`,
		`gpa_stage_duration_seconds_count{stage="advise"} 1`,
		`gpa_http_requests_total{route="/v1/advise",status="200",code=""} 1`,
		`gpa_http_requests_total{route="/v1/advise",status="400",code="unknown_arch"} 1`,
		`gpa_http_requests_total{route="/v1/advise",status="422",code="assemble_failed"} 1`,
		`gpa_http_request_duration_seconds_count{route="/v1/advise"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestTraceIDEchoAndMint pins the trace contract at the HTTP surface:
// a client-supplied X-Request-Id is echoed in the response header and
// result body; absent or unsafe IDs are replaced with a minted one;
// and requests differing only in trace ID still share one cache entry.
func TestTraceIDEchoAndMint(t *testing.T) {
	ts := newTestServer(t)
	req := map[string]any{"asm": testKernelSrc, "gridX": 160, "blockX": 256, "seed": 9}
	data, _ := json.Marshal(req)

	post := func(traceID string) (*http.Response, gpa.Result) {
		hr, err := http.NewRequest("POST", ts.URL+"/v1/advise", strings.NewReader(string(data)))
		if err != nil {
			t.Fatal(err)
		}
		if traceID != "" {
			hr.Header.Set("X-Request-Id", traceID)
		}
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out gpa.Result
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp, out
	}

	resp, out := post("client-trace-42")
	if got := resp.Header.Get("X-Request-Id"); got != "client-trace-42" {
		t.Errorf("response header trace = %q, want echo", got)
	}
	if out.TraceID != "client-trace-42" {
		t.Errorf("result traceId = %q, want echo", out.TraceID)
	}

	resp2, out2 := post("")
	minted := resp2.Header.Get("X-Request-Id")
	if len(minted) != 16 {
		t.Errorf("minted trace = %q, want 16 hex chars", minted)
	}
	if out2.TraceID != minted {
		t.Errorf("body trace %q != header trace %q", out2.TraceID, minted)
	}
	if !out2.Cached {
		t.Error("different trace IDs must not split the cache")
	}

	// An unsafe ID (spaces could forge log fields) is replaced.
	resp3, _ := post("evil header injection")
	if got := resp3.Header.Get("X-Request-Id"); strings.Contains(got, " ") || got == "" {
		t.Errorf("unsafe trace ID echoed: %q", got)
	}

	// Error responses carry the trace too.
	hr, _ := http.NewRequest("POST", ts.URL+"/v1/advise", strings.NewReader(`{"asm":"bad"`))
	hr.Header.Set("X-Request-Id", "err-trace-1")
	resp4, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp4.Body.Close()
	var eb errorBody
	if err := json.NewDecoder(resp4.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.TraceID != "err-trace-1" {
		t.Errorf("error body traceId = %q, want echo", eb.TraceID)
	}
}

// TestRequestLogGatedByLevel: the request line keeps its fields and
// their order when its level is enabled, and costs nothing — no attrs
// collected, nothing written — when it is not, while the request
// metrics still count every request.
func TestRequestLogGatedByLevel(t *testing.T) {
	serve := func(level slog.Level) (string, http.Handler) {
		var logs bytes.Buffer
		h := newServerCfg(serverConfig{
			engine: gpa.NewEngine(&gpa.EngineOptions{Workers: 1}),
			logger: slog.New(slog.NewJSONHandler(&logs, &slog.HandlerOptions{Level: level})),
		})
		req := httptest.NewRequest(http.MethodPost, "/v1/advise", strings.NewReader(`{"bench":"rodinia/hotspot"}`))
		req.Header.Set("X-Request-Id", "log-1")
		req.Header.Set("X-Tenant-Id", "acme")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req) // in-process: the line is written before this returns
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		return logs.String(), h
	}

	line, _ := serve(slog.LevelInfo)
	var keys []string
	dec := json.NewDecoder(strings.NewReader(line))
	if _, err := dec.Token(); err != nil { // the opening brace
		t.Fatalf("log line is not a JSON object: %q", line)
	}
	for dec.More() {
		k, _ := dec.Token()
		var v any
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k.(string))
	}
	want := "time level msg trace method path status durationMs tenant arch key cached"
	if got := strings.Join(keys, " "); got != want {
		t.Errorf("request line fields = %q, want %q", got, want)
	}
	for _, frag := range []string{`"trace":"log-1"`, `"tenant":"acme"`, `"arch":"v100"`, `"cached":false`, `"status":200`} {
		if !strings.Contains(line, frag) {
			t.Errorf("request line lacks %s: %s", frag, line)
		}
	}

	// A 200 on an API route logs at Info: silent at Warn and above.
	for _, level := range []slog.Level{slog.LevelWarn, slog.LevelError} {
		line, h := serve(level)
		if line != "" {
			t.Errorf("level %v: logged %q, want nothing", level, line)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if !strings.Contains(rec.Body.String(), `gpa_http_requests_total{route="/v1/advise",status="200",code=""} 1`) {
			t.Errorf("level %v: the unlogged request is missing from the request metrics", level)
		}
	}
}

// TestBatchLogNotesTenantOnce: a batch's request line names its tenant
// once, however many entries the batch carries.
func TestBatchLogNotesTenantOnce(t *testing.T) {
	var logs bytes.Buffer
	h := newServerCfg(serverConfig{
		engine: gpa.NewEngine(&gpa.EngineOptions{Workers: 1}),
		logger: slog.New(slog.NewJSONHandler(&logs, nil)),
	})
	entry := `{"bench":"rodinia/hotspot","kind":"measure"}`
	req := httptest.NewRequest(http.MethodPost, "/v1/batch",
		strings.NewReader(`{"requests":[`+entry+`,`+entry+`,`+entry+`]}`))
	req.Header.Set("X-Tenant-Id", "acme")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if n := strings.Count(logs.String(), `"tenant":`); n != 1 {
		t.Errorf("batch request line has %d tenant keys, want 1: %s", n, logs.String())
	}
}

// TestConcurrentScrapesDuringLoad races scrapes against inflight jobs;
// run with -race, any torn counter read or map race fails the build.
func TestConcurrentScrapesDuringLoad(t *testing.T) {
	ts := newTestServer(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				postJSON(t, ts.URL+"/v1/advise", map[string]any{
					"asm": testKernelSrc, "gridX": 160, "blockX": 256,
					"seed": 100 + g*10 + i,
				})
			}
		}(g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	metrics := parseMetrics(t, scrape(t, ts.URL))
	if metrics["gpa_engine_runs_total"] != 24 {
		t.Errorf("runs_total = %v, want 24", metrics["gpa_engine_runs_total"])
	}
}

// TestHealthzWithStore pins the upgraded health payload over a real
// store directory: dir, writability, corrupt count, and the 200-always
// liveness contract.
func TestHealthzWithStore(t *testing.T) {
	dir := t.TempDir()
	_, ts := newStoreServer(t, dir)
	var health healthzResponse
	getJSON(t, ts.URL+"/healthz", &health)
	if health.Status != "ok" {
		t.Errorf("status = %q", health.Status)
	}
	if health.Store == nil {
		t.Fatal("healthz omits store block for a store-backed server")
	}
	if !health.Store.Writable || health.Store.Error != "" {
		t.Errorf("fresh store reported unwritable: %+v", health.Store)
	}
	if !strings.HasPrefix(health.Store.Dir, dir) {
		t.Errorf("store dir %q not under %q", health.Store.Dir, dir)
	}
	if health.Store.CorruptBlobs != 0 {
		t.Errorf("corruptBlobs = %d, want 0", health.Store.CorruptBlobs)
	}
}

// TestBatchEnvelopeCarriesTrace pins that multi-result envelopes carry
// the request's trace once.
func TestBatchEnvelopeCarriesTrace(t *testing.T) {
	ts := newTestServer(t)
	body, _ := json.Marshal(map[string]any{
		"requests": []map[string]any{
			{"asm": testKernelSrc, "gridX": 160, "blockX": 256, "seed": 9},
		},
	})
	hr, _ := http.NewRequest("POST", ts.URL+"/v1/batch", strings.NewReader(string(body)))
	hr.Header.Set("X-Request-Id", "batch-trace-7")
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		TraceID string `json:"traceId"`
		Results []json.RawMessage
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.TraceID != "batch-trace-7" {
		t.Errorf("batch envelope traceId = %q, want echo", out.TraceID)
	}
}
