package main

import (
	"bytes"
	"encoding/json"
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
// recorder per call); the rest is the request decode (2: the body's
// limit reader and the bench name; 8 when encoding/json decoded it) and
// the middleware and handler (9: trace ID, three header values, the
// decoded request, its options). None of it scales with the 15 KB
// response.
func TestWarmAdviseWirePathAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector (its runtime allocates inside the measured window)")
	}
	h := quietServer()
	serveAdvise(t, h, warmAdviseBody) // cold: simulate and fill the cache
	if rec := serveAdvise(t, h, warmAdviseBody); !strings.Contains(rec.Body.String(), `"cached":true`) {
		t.Fatal("second request must be a cache hit")
	}

	pinWirePath(t, "warm /v1/advise", h, []string{warmAdviseBody}, 200, 27, 7)
}

// pinWirePath serves bodies passes times through h with the collector
// off, fails unless a request cost at most maxAllocs allocations
// (rounded) and maxKB, and returns the last response. One body buffer
// serves every request: a pin prices the handler, not the recorder
// growing a fresh buffer to the response's size each time.
func pinWirePath(t *testing.T, name string, h http.Handler, bodies []string, passes int, maxAllocs, maxKB float64) string {
	t.Helper()
	gcOff := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcOff)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var out bytes.Buffer
	for range passes {
		for _, body := range bodies {
			out.Reset()
			serveAdviseInto(t, h, body, &out)
		}
	}
	runtime.ReadMemStats(&after)
	n := float64(passes * len(bodies))
	allocs := float64(after.Mallocs-before.Mallocs) / n
	kb := float64(after.TotalAlloc-before.TotalAlloc) / n / 1024
	t.Logf("%s: %.1f allocs, %.1f KB per request", name, allocs, kb)
	if math.Round(allocs) > maxAllocs || kb > maxKB {
		t.Errorf("%s costs %.1f allocs / %.1f KB per request, want <= %g allocs / %g KB", name, allocs, kb, maxAllocs, maxKB)
	}
	return out.String()
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
	benchWirePath(b, h, []string{warmAdviseBody})
}

// benchWirePath cycles bodies through h as POST /v1/advise requests.
func benchWirePath(b *testing.B, h http.Handler, bodies []string) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/advise", strings.NewReader(bodies[i%len(bodies)]))
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
// same harness). What is left, 39.1 and 21.3 KB measured, is the warm
// wire path (TestWarmAdviseWirePathAllocations: 27) plus 12: the flight
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
	if out := pinWirePath(t, "disk-warm /v1/advise", h, bodies, 1, 39, 23); !strings.Contains(out, `"cached":true`) {
		t.Fatal("a request over the populated store must be served from it")
	}
}

func BenchmarkDiskWarmAdviseWirePath(b *testing.B) {
	h, bodies := diskWarmServer(b)
	benchWirePath(b, h, bodies)
}

// warmAsmBodies are the 52 request bodies bench/'s warm_asm workload
// sends: every Table 3 row's Base then Opt kernel as SASS text with its
// launch and one simulated SM, marshalled by json.Marshal (kernelRequest
// lays out the fields set here in the benchmark's order).
func warmAsmBodies(tb testing.TB) []string {
	tb.Helper()
	var bodies []string
	for _, b := range kernels.All() {
		for _, v := range []*kernels.Variant{&b.Base, &b.Opt} {
			l := v.Launch
			body, err := json.Marshal(kernelRequest{
				Asm: v.Asm, Entry: l.Entry,
				GridX: l.GridX, GridY: l.GridY, GridZ: l.GridZ,
				BlockX: l.BlockX, BlockY: l.BlockY, BlockZ: l.BlockZ,
				RegsPerThread: l.RegsPerThread, SharedMemPerBlock: l.SharedMemPerBlock,
				SimSMs: 1,
			})
			if err != nil {
				tb.Fatal(err)
			}
			bodies = append(bodies, string(body))
		}
	}
	return bodies
}

// warmAsmServer is a gpad that has served every warm_asm body once, so
// each kernel is in the front cache and each answer in memory.
func warmAsmServer(tb testing.TB) (http.Handler, []string) {
	tb.Helper()
	h, bodies := quietServer(), warmAsmBodies(tb)
	for _, body := range bodies {
		serveAdvise(tb, h, body)
	}
	return h, bodies
}

// TestWarmAsmWirePathAllocations pins what a warm POST /v1/advise of
// raw SASS costs, over the 52 bodies bench/'s warm_asm sends: 28.0
// allocations and 10.0 KB measured. That is the warm wire path
// (TestWarmAdviseWirePathAllocations: 27) with the asm text — a ~3 KB
// string copied out of the pooled body with its escapes undone, which
// the kernel cache may keep — and the entry name in place of the bench
// name. When encoding/json decoded the body it cost 36.6 allocations and
// 21.5 KB: its decoder's buffer and state, and the asm text scanned,
// rescanned and unquoted into a second copy.
func TestWarmAsmWirePathAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector (its runtime allocates inside the measured window)")
	}
	h, bodies := warmAsmServer(t)
	if out := pinWirePath(t, "warm asm /v1/advise", h, bodies, 4, 28, 11); !strings.Contains(out, `"cached":true`) {
		t.Fatal("a repeated asm request must be a cache hit")
	}
}

func BenchmarkWarmAsmWirePath(b *testing.B) {
	h, bodies := warmAsmServer(b)
	benchWirePath(b, h, bodies)
}
