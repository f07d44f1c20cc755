package main

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"gpa"
	"gpa/internal/kernels"
)

// warmAdviseBody is the bundled-row request the wire-path pins replay
// (the shape bench/'s warm_bench workload sends).
const warmAdviseBody = `{"bench":"rodinia/hotspot","simSMs":4}`

// quietServer is gpad as the benchmark and most deployments run it:
// request logging below the error level.
func quietServer() http.Handler {
	return quietServerOver(nil)
}

// quietServerOver is quietServer over a persistent artifact store.
func quietServerOver(st *gpa.Store) http.Handler {
	return newServerCfg(serverConfig{
		engine: gpa.NewEngine(&gpa.EngineOptions{Workers: 1, Store: st}),
		store:  st,
		logger: slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError})),
	})
}

// serveAdvise drives one in-process POST /v1/advise through the full
// handler stack (middleware, decode, engine, encode) into a recorder.
func serveAdvise(tb testing.TB, h http.Handler, body string) *httptest.ResponseRecorder {
	return serveAdviseInto(tb, h, body, new(bytes.Buffer))
}

// serveAdviseInto is serveAdvise recording the response body into out.
func serveAdviseInto(tb testing.TB, h http.Handler, body string, out *bytes.Buffer) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	rec.Body = out
	req := httptest.NewRequest(http.MethodPost, "/v1/advise", strings.NewReader(body))
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		tb.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	return rec
}

// TestWarmAdviseWirePathAllocations pins what a warm POST /v1/advise
// costs above the 0-alloc Engine.Do (TestWarmEngineDoAllocationFree in
// the root package): request decode, bench lookup, digest, the
// per-request head append, and two Writes. With every hit re-rendering
// the report and re-encoding the result this path cost 331 allocations
// and 143 KB per request (ROADMAP, re-anchor after PR 10, same
// harness); the pins are the measured values, a tenth of that or less.
// About half of what is left is the harness's own (a request and a
// recorder per call); the rest is the JSON request decoder (7) and the
// middleware and handler (9: trace ID, three header values, the decoded
// request, its options). None of it scales with the 15 KB response.
func TestWarmAdviseWirePathAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector (its runtime allocates inside the measured window)")
	}
	h := quietServer()
	serveAdvise(t, h, warmAdviseBody) // cold: simulate and fill the cache
	if rec := serveAdvise(t, h, warmAdviseBody); !strings.Contains(rec.Body.String(), `"cached":true`) {
		t.Fatal("second request must be a cache hit")
	}

	const runs = 200
	gcOff := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcOff)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	// One body buffer for every run: the pin prices the handler, not the
	// recorder growing a fresh buffer to the response's size each time.
	var body bytes.Buffer
	for i := 0; i < runs; i++ {
		body.Reset()
		serveAdviseInto(t, h, warmAdviseBody, &body)
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	kb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
	t.Logf("warm /v1/advise: %.1f allocs, %.1f KB per request", allocs, kb)
	if math.Round(allocs) > 33 || kb > 8 {
		t.Errorf("warm /v1/advise costs %.1f allocs / %.1f KB per request, want <= 33 allocs / 8 KB", allocs, kb)
	}
}

// discardWriter is a ResponseWriter that drops the body, so the
// benchmark prices the handler and not the recorder's buffer growth.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}

func BenchmarkWarmAdviseWirePath(b *testing.B) {
	h := quietServer()
	serveAdvise(b, h, warmAdviseBody)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/advise", strings.NewReader(warmAdviseBody))
		h.ServeHTTP(&discardWriter{h: http.Header{}}, req)
	}
}

// diskWarmSeeds × the 26 Table 3 rows is the disk-warm working set: 546
// distinct requests, more than the 512 entries of each stage LRU, so
// cycling through them in order never finds one in memory (what bench/'s disk_warm workload sends).
const diskWarmSeeds = 21

// diskWarmServer populates a store with the working set through one
// gpad and returns a fresh one over the same directory, as a restart
// leaves it, with the request bodies.
func diskWarmServer(tb testing.TB) (http.Handler, []string) {
	tb.Helper()
	var bodies []string
	for seed := range diskWarmSeeds {
		for _, b := range kernels.All() {
			bodies = append(bodies, fmt.Sprintf(`{"bench":%q,"seed":%d}`, b.ID(), 1000+seed))
		}
	}
	dir := tb.TempDir()
	open := func() http.Handler {
		st, err := gpa.OpenStore(dir)
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { st.Close() })
		return quietServerOver(st)
	}
	h := open()
	for _, body := range bodies {
		serveAdvise(tb, h, body)
	}
	return open(), bodies
}

// TestDiskWarmAdviseWirePathAllocations pins what a POST /v1/advise
// costs a restarted gpad whose store holds the answer and whose memory
// does not: one blob read, validated and written out as stored. When the
// profile and the advice were both read, decoded into structs and
// re-encoded, this path cost 846 allocations and 262 KB per request (the
// same harness). What is left, 45.1 and 22.2 KB measured, is the warm
// wire path (TestWarmAdviseWirePathAllocations: 33) plus 12: the flight
// record and its done channel (2); the blob read (3: a pread of the
// frame's span in the advice log into a buffer of exactly its 14 KB,
// and the store's frame header); the profile digest the document opens
// with (1: a string; the kernel name is the request's own); the response
// and its advice artifact (2); the response's hex key (1); and the
// memory-tier entry the hit is published as (2). The run context, the
// goroutine and the request copy a flight used to start before probing
// the disk are gone (5).
func TestDiskWarmAdviseWirePathAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector (its runtime allocates inside the measured window)")
	}
	h, bodies := diskWarmServer(t)
	gcOff := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcOff)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var out bytes.Buffer
	for _, body := range bodies {
		out.Reset()
		serveAdviseInto(t, h, body, &out)
	}
	runtime.ReadMemStats(&after)
	if !strings.Contains(out.String(), `"cached":true`) {
		t.Fatal("a request over the populated store must be served from it")
	}
	allocs := float64(after.Mallocs-before.Mallocs) / float64(len(bodies))
	kb := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(bodies)) / 1024
	t.Logf("disk-warm /v1/advise: %.1f allocs, %.1f KB per request", allocs, kb)
	if math.Round(allocs) > 45 || kb > 24 {
		t.Errorf("disk-warm /v1/advise costs %.1f allocs / %.1f KB per request, want <= 45 allocs / 24 KB", allocs, kb)
	}
}

func BenchmarkDiskWarmAdviseWirePath(b *testing.B) {
	h, bodies := diskWarmServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/advise", strings.NewReader(bodies[i%len(bodies)]))
		h.ServeHTTP(&discardWriter{h: http.Header{}}, req)
	}
}
