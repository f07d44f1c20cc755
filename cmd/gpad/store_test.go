package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"gpa"
)

// newStoreServer starts a gpad test server backed by a persistent
// artifact store at dir, returning the engine so tests can drain it
// with the same semantics SIGTERM triggers in main().
func newStoreServer(t *testing.T, dir string) (*gpa.Engine, *httptest.Server) {
	t.Helper()
	st, err := gpa.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := gpa.NewEngine(&gpa.EngineOptions{Store: st})
	ts := httptest.NewServer(newServerCfg(serverConfig{engine: eng, store: st}))
	t.Cleanup(func() {
		ts.Close()
		st.Close()
	})
	return eng, ts
}

// drain shuts the engine and server down the way a SIGTERM does: stop
// accepting, let in-flight jobs finish, then close the listener.
func drain(t *testing.T, eng *gpa.Engine, ts *httptest.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := eng.Shutdown(ctx); err != nil {
		t.Fatalf("engine drain: %v", err)
	}
	ts.Close()
}

// TestRestartWarmFromStore is the end-to-end restart-warmth
// acceptance test: a gpad populated through its HTTP surface is
// drained and replaced by a fresh process sharing only the store
// directory; the restarted daemon answers every request byte-identical
// to the cold run (modulo the cached flag) without running a single
// simulation.
func TestRestartWarmFromStore(t *testing.T) {
	dir := t.TempDir()
	asmReq := map[string]any{
		"asm": testKernelSrc, "gridX": 160, "blockX": 256, "seed": 9,
	}
	type request struct {
		name string
		path string
		body map[string]any
	}
	requests := []request{
		{"profile", "/v1/profile", asmReq},
		{"advise", "/v1/advise", asmReq},
		{"bench", "/v1/advise", map[string]any{"bench": "rodinia/hotspot"}},
	}

	eng1, ts1 := newStoreServer(t, dir)
	cold := make(map[string][]byte, len(requests))
	for _, r := range requests {
		resp, body := postJSON(t, ts1.URL+r.path, r.body)
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d: %s", r.name, resp.StatusCode, body)
		}
		cold[r.name] = body
	}
	var st1 statszResponse
	getJSON(t, ts1.URL+"/statsz", &st1)
	// The advise over the asm kernel rides the profile job's stored
	// profile: three runs, but only two simulations.
	if st1.Runs != 3 || st1.Sims != 2 {
		t.Fatalf("cold server: runs=%d sims=%d, want runs=3 sims=2 (profile must feed advise)",
			st1.Runs, st1.Sims)
	}
	drain(t, eng1, ts1)

	// A brand-new engine over the same directory: every response must
	// come from the store, byte-identical, with zero pipeline activity.
	_, ts2 := newStoreServer(t, dir)
	norm := normTransport
	var st2 statszResponse
	served := func(r request) {
		t.Helper()
		resp, warm := postJSON(t, ts2.URL+r.path, r.body)
		if resp.StatusCode != 200 {
			t.Fatalf("restarted %s: status %d: %s", r.name, resp.StatusCode, warm)
		}
		var wr gpa.Result
		if err := json.Unmarshal(warm, &wr); err != nil {
			t.Fatal(err)
		}
		if !wr.Cached {
			t.Errorf("restarted %s: response not marked cached", r.name)
		}
		if norm(warm) != norm(cold[r.name]) {
			t.Errorf("restarted %s: response differs from cold run\ncold: %s\nwarm: %s",
				r.name, cold[r.name], warm)
		}
		getJSON(t, ts2.URL+"/statsz", &st2)
	}
	// The advise hits first: each is one blob read, written out as it
	// was stored — no second read for the profile, no struct decoded.
	for i, r := range requests[1:] {
		served(r)
		if st2.StoreHits != int64(i+1) || st2.StageDecodes != 0 || st2.StorePuts != 0 {
			t.Errorf("after %d stored advise hits: storeHits=%d stageDecodes=%d storePuts=%d, want %d/0/0",
				i+1, st2.StoreHits, st2.StageDecodes, st2.StorePuts, i+1)
		}
	}
	// A profile response is the stored body too: no decode either.
	served(requests[0])
	if st2.StoreHits != 3 || st2.StageDecodes != 0 {
		t.Errorf("after the stored profile hit: storeHits=%d stageDecodes=%d, want 3/0", st2.StoreHits, st2.StageDecodes)
	}
	if st2.Runs != 0 || st2.Sims != 0 {
		t.Errorf("restarted server ran the pipeline: runs=%d sims=%d, want 0/0", st2.Runs, st2.Sims)
	}
	if st2.StageServed != int64(len(requests)) {
		t.Errorf("stageServed = %d, want %d", st2.StageServed, len(requests))
	}

	// A batch entry is the same head and tail inside an envelope: over
	// the (by now memory-resident) stored response it reads no blob and
	// decodes nothing.
	batch := map[string]any{"requests": []map[string]any{{"bench": "rodinia/hotspot"}}}
	for range 2 {
		if resp, body := postJSON(t, ts2.URL+"/v1/batch", batch); resp.StatusCode != 200 {
			t.Fatalf("batch: status %d: %s", resp.StatusCode, body)
		}
	}
	getJSON(t, ts2.URL+"/statsz", &st2)
	if st2.StoreHits != 3 || st2.StageDecodes != 0 {
		t.Errorf("after two batches over a stored result: storeHits=%d stageDecodes=%d, want 3/0", st2.StoreHits, st2.StageDecodes)
	}
}

// TestEnvelopesMatchReferenceEncoder pins gpad's one renderer against
// the encoder the wire format is defined by. A restarted daemon over a
// stored working set serves an advise, a profile, a batch (every kind,
// a request that cannot be built, a job the engine fails) and a sweep
// without decoding one stored artifact; and the batch and sweep bodies
// equal, byte for byte, the reference encoding of an envelope around
// Job.Result's structs and the error bodies — the path entries took
// before they were rendered as head + tail.
func TestEnvelopesMatchReferenceEncoder(t *testing.T) {
	dir := t.TempDir()
	asm := kernelRequest{Asm: testKernelSrc, GridX: 160, BlockX: 256}
	kind := func(r kernelRequest, k string) kernelRequest { r.Kind = k; return r }
	batch := batchRequest{Requests: []kernelRequest{
		{Bench: "rodinia/hotspot"},
		kind(asm, "profile"),
		kind(asm, "measure"),
		{Bench: "no-such-bench"},           // never becomes a job
		{Asm: testKernelSrc, BlockX: 4096}, // the engine fails it, without simulating
	}}
	sweep := sweepRequest{kernelRequest: kernelRequest{Bench: "rodinia/hotspot"}}

	eng1, ts1 := newStoreServer(t, dir)
	for path, body := range map[string]any{"/v1/batch": batch, "/v1/sweep": sweep} {
		if resp, out := postJSON(t, ts1.URL+path, body); resp.StatusCode != 200 {
			t.Fatalf("populate %s: status %d: %s", path, resp.StatusCode, out)
		}
	}
	drain(t, eng1, ts1)

	eng2, ts2 := newStoreServer(t, dir)
	for path, body := range map[string]any{"/v1/advise": batch.Requests[0], "/v1/profile": asm} {
		if resp, out := postJSON(t, ts2.URL+path, body); resp.StatusCode != 200 {
			t.Fatalf("%s: status %d: %s", path, resp.StatusCode, out)
		}
	}
	respB, gotBatch := postJSON(t, ts2.URL+"/v1/batch", batch)
	respS, gotSweep := postJSON(t, ts2.URL+"/v1/sweep", sweep)
	if respB.StatusCode != 200 || respS.StatusCode != 200 {
		t.Fatalf("batch status %d, sweep status %d", respB.StatusCode, respS.StatusCode)
	}
	var st statszResponse
	getJSON(t, ts2.URL+"/statsz", &st)
	if st.StageDecodes != 0 || st.Sims != 0 || st.StoreHits == 0 {
		t.Errorf("advise, profile, batch and sweep over a stored working set: stageDecodes=%d sims=%d storeHits=%d, want 0, 0, some",
			st.StageDecodes, st.Sims, st.StoreHits)
	}

	// The reference: the same jobs on the same engine (memory hits by
	// now), through Job.Result and the struct encoder.
	s := &server{kernels: newKernelCache(nil), benches: indexBenches()}
	entry := func(req kernelRequest, gpu string) any {
		req.Arch = gpu
		job, err := req.job(s)
		if err != nil {
			_, body := requestErrorBody(err)
			return body
		}
		out, err := job.Result(eng2.Do(context.Background(), job))
		if err != nil {
			_, body := errorBodyOf(err)
			return body
		}
		return out
	}
	reference := func(trace string, results []any) []byte {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(envelope{SchemaVersion: gpa.ResultSchemaVersion, TraceID: trace, Results: results}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var wantBatch, wantSweep []any
	for _, req := range batch.Requests {
		wantBatch = append(wantBatch, entry(req, ""))
	}
	for _, g := range gpa.GPUs() {
		wantSweep = append(wantSweep, entry(sweep.kernelRequest, gpa.GPUName(g)))
	}
	if _, failed := wantBatch[4].(*errorBody); !failed || len(wantSweep) < 2 {
		t.Fatalf("the working set lost its engine-failed entry (%T) or its models (%d)", wantBatch[4], len(wantSweep))
	}
	if want := reference(respB.Header.Get(traceHeader), wantBatch); !bytes.Equal(gotBatch, want) {
		t.Errorf("batch envelope differs from the reference encoding\n got: %s\nwant: %s", gotBatch, want)
	}
	if want := reference(respS.Header.Get(traceHeader), wantSweep); !bytes.Equal(gotSweep, want) {
		t.Errorf("sweep envelope differs from the reference encoding\n got: %s\nwant: %s", gotSweep, want)
	}
}

// TestStatszReportsStoreCounters pins the observability surface: the
// artifact-store counters are visible at /statsz and progress as the
// store is exercised.
func TestStatszReportsStoreCounters(t *testing.T) {
	_, ts := newStoreServer(t, t.TempDir())
	postJSON(t, ts.URL+"/v1/advise", map[string]any{"bench": "rodinia/hotspot"})
	var st statszResponse
	getJSON(t, ts.URL+"/statsz", &st)
	if st.StorePuts == 0 {
		t.Errorf("cold advise wrote no store blobs: %+v", st.EngineStats)
	}
	if st.StoreMisses == 0 {
		t.Errorf("cold advise recorded no store misses: %+v", st.EngineStats)
	}
	if st.StructureBuilds != 1 {
		t.Errorf("structureBuilds = %d, want 1", st.StructureBuilds)
	}
}
