package main

// The /metrics scrape's cost and bytes: a fixed snapshot renders to the
// testdata golden byte for byte, the engine field table covers exactly
// the numeric /statsz keys, the exposition goes out with its
// Content-Length, and a scrape's allocations are pinned.

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"gpa"
	"gpa/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics.golden from the current writer")

// scrapeFixture is a fixed scrape input: every EngineStats field
// non-zero and distinct (some past the 1e6 where the exposition's
// shortest float switches to an exponent), two tenants, three routes,
// four stages, and a build label that needs every label escape.
func scrapeFixture() (build []obs.Label, uptime float64, st gpa.EngineStats, stages *obs.StageLatency, reqs *obs.RequestMetrics) {
	build = []obs.Label{
		{Name: "version", Value: "v1.2.3 \"golden\" C:\\gpa\nrc1"},
		{Name: "go", Value: "go1.24.0"},
	}
	uptime = 4321.0625
	v := reflect.ValueOf(&st).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i+1)*37 + int64(i%3)*1_000_003)
		case reflect.Float64:
			f.SetFloat(float64(i) + 0.375)
		}
	}
	st.Tenants = map[string]gpa.TenantStats{
		"alpha":   {Weight: 3, Served: 1200, Shed: 4, QuotaShed: 5, BrownoutShed: 6, Dropped: 7, Queued: 8},
		"batch-b": {Weight: 1, Served: 98765432, Shed: 14, QuotaShed: 15, BrownoutShed: 16, Dropped: 17, Queued: 18},
	}
	stages = obs.NewStageLatency()
	for s := obs.Stage(0); s < obs.NumStages; s++ {
		for k := 1; k <= 3+int(s); k++ {
			stages.Observe(s, time.Duration(k*k)*time.Duration(s+1)*730*time.Microsecond)
		}
	}
	reqs = obs.NewRequestMetrics()
	reqs.Record("/v1/advise", 200, "", 3*time.Millisecond)
	reqs.Record("/v1/advise", 200, "", 42*time.Microsecond)
	reqs.Record("/v1/advise", 503, "queue_full", 9*time.Microsecond)
	reqs.Record("/v1/advise", 400, "unknown_arch", 120*time.Microsecond)
	reqs.Record("/metrics", 200, "", 650*time.Microsecond)
	reqs.Record("/v1/batch", 200, "", 2500*time.Millisecond)
	reqs.Record("/v1/batch", 429, "quota_exceeded", 17*time.Microsecond)
	return
}

// TestMetricsGolden renders the fixture and compares it with
// testdata/metrics.golden, which the fmt-and-JSON-round-trip writer this
// one replaced rendered from the same fixture: the pooled append writer
// must produce the same bytes. A new Stats field changes the fixture's
// output; regenerate with -update and review the diff.
func TestMetricsGolden(t *testing.T) {
	build, uptime, st, stages, reqs := scrapeFixture()
	var p obs.PromWriter
	writeScrape(&p, build, uptime, &st, stages, reqs)
	const path = "testdata/metrics.golden"
	if *updateGolden {
		if err := os.WriteFile(path, p.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Bytes(); !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("line %d:\n got %q\nwant %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("got %d lines, golden has %d", len(gl), len(wl))
	}
}

// TestEngineFieldsCoverStatsz pins the field table to /statsz: its keys
// are exactly the numeric keys json.Marshal(Stats) emits, in sorted
// order.
func TestEngineFieldsCoverStatsz(t *testing.T) {
	_, _, st, _, _ := scrapeFixture()
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	var want []string
	for k, v := range fields {
		if _, ok := v.(float64); ok {
			want = append(want, k)
		}
	}
	slices.Sort(want)
	var got []string
	for _, f := range engineFields {
		got = append(got, f.key)
	}
	if !slices.Equal(got, want) {
		t.Errorf("field table keys:\n%v\nnumeric /statsz keys:\n%v", got, want)
	}
}

// TestMetricsContentLength checks that a scrape goes out in one piece
// with its length, not chunked.
func TestMetricsContentLength(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.TransferEncoding) != 0 || resp.ContentLength != int64(len(body)) {
		t.Errorf("/metrics: Transfer-Encoding %v, Content-Length %d for %d bytes",
			resp.TransferEncoding, resp.ContentLength, len(body))
	}
}

// TestMetricsScrapeAllocations pins what a GET /metrics costs a gpad that
// has served one advise, through the whole handler stack: 26.0
// allocations and 7.1 KB measured. When the exposition went through fmt,
// a strings.NewReplacer per escaped string and a json.Marshal →
// map[string]any → sort round trip for the engine series, a scrape cost
// 4,124 allocations and 2.3 MB (BenchmarkMetricsScrape, same harness).
// What is left is mostly the harness (the request and the recorder) and
// the middleware (trace ID, response headers); the rest is the Stats
// snapshot (its tenant map and the runtime sample it reads), the sorted
// tenant names and the Content-Length value. Nothing scales with the
// ~15 KB exposition: it is rendered into a pooled buffer. Without that
// pool's Put every scrape grows a fresh buffer, 46 allocations and 90 KB.
func TestMetricsScrapeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector (its runtime allocates inside the measured window)")
	}
	h := quietServer()
	serveAdvise(t, h, warmAdviseBody)
	var out bytes.Buffer
	pinAllocs(t, "GET /metrics", 200, func() {
		out.Reset()
		rec := httptest.NewRecorder()
		rec.Body = &out
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("/metrics status %d", rec.Code)
		}
	}, 26, 8)
}

func BenchmarkMetricsScrape(b *testing.B) {
	h := quietServer()
	serveAdvise(b, h, warmAdviseBody)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(&discardWriter{h: http.Header{}}, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	}
}
