package main

// The v2 error contract: one HTTP status + stable code per typed
// sentinel (the classify table), pinned both as a unit table and
// end-to-end through the HTTP surface.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"gpa"
	"gpa/internal/apierr"
)

func TestErrorTaxonomyStatusTable(t *testing.T) {
	cases := []struct {
		name   string
		err    error
		status int
		code   string
	}{
		{"canceled", apierr.Canceled(context.Canceled), statusClientClosed, "canceled"},
		{"deadline expired", apierr.Canceled(context.DeadlineExceeded),
			http.StatusGatewayTimeout, "deadline_exceeded"},
		{"queue full", fmt.Errorf("service: %w (capacity 4)", gpa.ErrQueueFull),
			http.StatusServiceUnavailable, "queue_full"},
		{"shutting down", fmt.Errorf("service: %w", gpa.ErrShuttingDown),
			http.StatusServiceUnavailable, "shutting_down"},
		{"quota exceeded", fmt.Errorf("service: %w",
			&apierr.QuotaError{Tenant: "acme", RetryAfter: 2 * time.Second}),
			http.StatusTooManyRequests, "quota_exceeded"},
		{"unknown arch", fmt.Errorf("arch: %w: %q", gpa.ErrUnknownArch, "sm_999"),
			http.StatusBadRequest, "unknown_arch"},
		{"assemble failed", fmt.Errorf("gpa: %w: line 3: bad opcode", gpa.ErrAssemble),
			http.StatusUnprocessableEntity, "assemble_failed"},
		{"bad kernel", fmt.Errorf("gpa: %w: empty grid", gpa.ErrBadKernel),
			http.StatusUnprocessableEntity, "bad_kernel"},
		{"sim limit", fmt.Errorf("gpusim: %w: SM 0 exceeded 50000000 cycles", gpa.ErrSimLimit),
			http.StatusUnprocessableEntity, "sim_limit"},
		{"internal", fmt.Errorf("service: %w: pipeline run panicked: boom", gpa.ErrInternal),
			http.StatusInternalServerError, "internal"},
		{"untyped", errors.New("disk on fire"), http.StatusInternalServerError, "internal"},
	}
	for _, tc := range cases {
		status, code := classify(tc.err)
		if status != tc.status || code != tc.code {
			t.Errorf("%s: classify = (%d, %q), want (%d, %q)",
				tc.name, status, code, tc.status, tc.code)
		}
	}
}

func TestDeadlineExceededMapsTo504(t *testing.T) {
	ts := newTestServer(t)
	// A fresh seed forces a real simulation. simSMs 80 simulates the
	// whole V100 with per-cycle sampling (about 250 ms uncanceled, 12×
	// the work of simSMs 4), so the run cannot finish before the 2 ms
	// deadline timer is serviced, even on a single CPU, and the deadline
	// cancels it at its next checkpoint.
	resp, body := postJSON(t, ts.URL+"/v1/advise", map[string]any{
		"bench": "rodinia/hotspot", "seed": 987654, "timeoutMs": 2,
		"simSMs": 80, "samplePeriod": 1,
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", resp.StatusCode, body)
	}
	var out errorBody
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Error.Code != "deadline_exceeded" || out.SchemaVersion != gpa.ResultSchemaVersion {
		t.Errorf("error body = %+v", out)
	}
}

func TestQueueFullMapsTo503(t *testing.T) {
	// One worker and no queue: while a job holds the only admission
	// slot, an HTTP request is shed deterministically.
	eng := gpa.NewEngine(&gpa.EngineOptions{Workers: 1, MaxQueue: -1})
	ts := httptest.NewServer(newServer(eng))
	t.Cleanup(ts.Close)

	// Occupy the slot straight through the engine (the test owns it)
	// with a simulation long enough (hundreds of ms) that the HTTP
	// request below always lands while it is running.
	k, err := gpa.LoadKernelAsm(testKernelSrc, gpa.Launch{
		Entry: "vecscale", GridX: 160, BlockX: 256, RegsPerThread: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	wl, err := k.BindWorkload(&gpa.WorkloadSpec{
		Trips: map[gpa.Site]gpa.TripFunc{
			{Func: "vecscale", Label: "BR0"}: gpa.UniformTrips(50_000),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	job := gpa.Job{
		Kind: gpa.JobMeasure, Kernel: k,
		Options:     &gpa.Options{Workload: wl, Seed: 424242, SimSMs: 1},
		WorkloadKey: "hog",
	}
	hogCtx, stopHog := context.WithCancel(context.Background())
	defer stopHog()
	hogDone := make(chan gpa.JobResult, 1)
	go func() { hogDone <- eng.Do(hogCtx, job) }()
	deadline := time.Now().Add(5 * time.Second)
	for eng.Stats().Inflight == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	resp, body := postJSON(t, ts.URL+"/v1/advise",
		map[string]any{"bench": "rodinia/hotspot", "seed": 777})
	stopHog()
	<-hogDone
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After header")
	}
	var out errorBody
	if err := json.Unmarshal(body, &out); err != nil || out.Error.Code != "queue_full" {
		t.Errorf("503 body code = %q (%s)", out.Error.Code, body)
	}
	if st := eng.Stats(); st.Shed != 1 {
		t.Errorf("stats.Shed = %d, want 1 (%+v)", st.Shed, st)
	}
}

// TestStatszPoolCounters pins the serving-efficiency surface: /v1/statsz
// (the /statsz alias included) reports the summed work records of the
// engine's own simulations — one state arena per simulation, reused or
// not, from the pool every program in the process shares — and its
// allocations-per-job rate, so a production gpad can alert on
// warm-path allocation regressions.
func TestStatszPoolCounters(t *testing.T) {
	ts := newTestServer(t)
	// Keep the collector off (it empties a sync.Pool) and run on one P,
	// so every Get meets the pool the last Put filled: whatever the first
	// simulation finds there (a run another test left may have put an
	// arena back), each later one reuses an arena, on the same program
	// or on a kernel nothing has run yet. Under the race detector
	// sync.Pool drops a share of what is put back.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	body := map[string]any{"asm": testKernelSrc, "gridX": 4, "blockX": 64}
	for i := 0; i < 2; i++ {
		resp, out := postJSON(t, ts.URL+"/v1/advise", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("advise %d: status %d: %s", i, resp.StatusCode, out)
		}
	}
	// Another seed over the same kernel: a second simulation, on the
	// program the front cache shares.
	body["seed"] = 12
	if resp, out := postJSON(t, ts.URL+"/v1/advise", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("second seed: status %d: %s", resp.StatusCode, out)
	}
	// A third, on a program that has never run.
	body["asm"] = strings.Replace(testKernelSrc, "0x40", "0x20", 1)
	if resp, out := postJSON(t, ts.URL+"/v1/advise", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("new kernel: status %d: %s", resp.StatusCode, out)
	}
	for _, path := range []string{"/statsz", "/v1/statsz"} {
		var st statszResponse
		getJSON(t, ts.URL+path, &st)
		if st.Hits != 1 || st.Runs != 3 {
			t.Errorf("%s: hits=%d runs=%d after 3 cold + 1 warm advise, want 1/3", path, st.Hits, st.Runs)
		}
		// The counters are this engine's own: nothing another server in
		// the process simulates moves them.
		if st.PoolGets != 3 || st.Sims != 3 || st.PoolHits > 3 || (st.PoolHits < 2 && !raceEnabled) {
			t.Errorf("%s: poolGets=%d poolHits=%d sims=%d, want 3 arenas for 3 simulations, at least the last 2 reused", path, st.PoolGets, st.PoolHits, st.Sims)
		}
		if st.AllocsPerJob <= 0 {
			t.Errorf("%s: allocsPerJob = %v, want > 0 (cold runs allocate)", path, st.AllocsPerJob)
		}
	}
	// The raw JSON must carry the documented field names.
	resp, err := http.Get(ts.URL + "/v1/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	for _, field := range []string{`"poolGets"`, `"poolHits"`, `"allocsPerJob"`,
		`"ffPeriodsDetected"`, `"ffCyclesSkipped"`, `"ffFallbacks"`} {
		if !strings.Contains(string(raw), field) {
			t.Errorf("/v1/statsz JSON missing %s: %s", field, raw)
		}
	}
}
