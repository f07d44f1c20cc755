// Serving advice at scale: the same kernel is advised through the
// batch engine (gpa.NewEngine) — first as a concurrent burst of
// identical jobs that singleflight collapses into ONE simulation, then
// as a cross-architecture sweep, with the engine's hit/miss/coalesce
// counters printed after each phase. The engine is exactly what
// cmd/gpad serves over HTTP; with -addr the example talks to a running
// gpad instead and demonstrates the same cache behaviour over the
// wire.
//
// Run with:
//
//	go run ./examples/service                      # in-process engine
//	go run ./cmd/gpad &                            # then, against HTTP:
//	go run ./examples/service -addr 127.0.0.1:8377
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"

	"gpa"
)

const kernelSrc = `
.module sm_70
.func blur_tile global
.line blur.cu 9
	MOV R0, 0x0 {S:2}
	S2R R1, SR_TID.X {S:2, W:5}
	IMAD R2, R1, 0x4, RZ {S:4, Q:5}
	IADD R2, R2, c[0x0][0x160] {S:2}
LOOP:
.line blur.cu 12
	LDG.E.32 R4, [R2] {S:1, W:0}
.line blur.cu 13
	I2F R5, R4 {S:6, Q:0}
	FMUL R6, R5, 2f {S:4}
	F2I R7, R6 {S:6}
	IADD R2, R2, 0x4 {S:4}
	IADD R0, R0, 0x1 {S:4}
	ISETP P0, R0, 0x40 {S:4}
BR0:	@P0 BRA LOOP {S:5}
	STG.E.32 [R2], R7 {S:1, R:1}
	EXIT {Q:1}
`

func main() {
	addr := flag.String("addr", "", "gpad address (empty = in-process engine)")
	flag.Parse()
	if *addr != "" {
		if err := runHTTP(*addr); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := runInProcess(); err != nil {
		log.Fatal(err)
	}
}

// runInProcess drives the library batch API.
func runInProcess() error {
	k, err := gpa.LoadKernelAsm(kernelSrc, gpa.Launch{
		Entry: "blur_tile", GridX: 640, BlockX: 256, RegsPerThread: 32,
	})
	if err != nil {
		return err
	}
	// A workload is an opaque callback, so caching it needs a stable
	// name: the WorkloadKey below promises "blur:64trips" always means
	// this binding.
	wl, err := k.BindWorkload(&gpa.WorkloadSpec{
		Trips: map[gpa.Site]gpa.TripFunc{
			{Func: "blur_tile", Label: "BR0"}: gpa.UniformTrips(64),
		},
	})
	if err != nil {
		return err
	}
	opts := &gpa.Options{Workload: wl, Seed: 11, SimSMs: 1}
	eng := gpa.NewEngine(nil)
	job := gpa.Job{Kind: gpa.JobAdvise, Kernel: k, Options: opts, WorkloadKey: "blur:64trips"}

	// Phase 1: a burst of identical concurrent requests. The engine's
	// singleflight table collapses them into one simulation.
	const burst = 16
	var wg sync.WaitGroup
	results := make([]gpa.JobResult, burst)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = eng.Do(context.Background(), job)
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if r.Err != nil {
			return fmt.Errorf("burst job %d: %w", i, r.Err)
		}
	}
	fmt.Printf("burst: %d identical concurrent requests\n", burst)
	printStats(eng)

	// Phase 2: a repeat is a pure cache hit, byte-identical by the
	// determinism contract.
	repeat := eng.Do(context.Background(), job)
	if repeat.Err != nil {
		return repeat.Err
	}
	// Report is an accessor that can fail: a cached result holds the
	// bytes it is served as and decodes its report only when asked.
	first, err := results[0].Report()
	if err != nil {
		return err
	}
	again, err := repeat.Report()
	if err != nil {
		return err
	}
	fmt.Printf("\nrepeat: cached=%v, report identical=%v\n",
		repeat.Cached, again.String() == first.String())

	// Phase 3: sweep the kernel across every registered architecture.
	// Sweep returns the per-model jobs it ran beside their results.
	jobs, sweep := eng.Sweep(context.Background(), job, nil)
	fmt.Println("\nsweep across registered architectures:")
	for i, r := range sweep {
		if r.Err != nil {
			return fmt.Errorf("%s: %w", jobs[i].Arch(), r.Err)
		}
		rep, err := r.Report()
		if err != nil {
			return fmt.Errorf("%s: %w", jobs[i].Arch(), err)
		}
		top := "-"
		if es := rep.Top(1); len(es) > 0 {
			top = fmt.Sprintf("%s (%.3fx)", es[0].Optimizer, es[0].Speedup)
		}
		fmt.Printf("  %-6s %8d cycles   top advice: %s\n",
			jobs[i].Arch(), r.Cycles, top)
	}
	printStats(eng)

	fmt.Println("\ntop advice on the default model:")
	for i, e := range first.Top(3) {
		fmt.Printf("  %d. %-40s est %.3fx\n", i+1, e.Optimizer, e.Speedup)
	}
	return nil
}

func printStats(eng *gpa.Engine) {
	st := eng.Stats()
	fmt.Printf("engine stats: runs=%d sims=%d misses=%d coalesced=%d hits=%d\n",
		st.Runs, st.Sims, st.Misses, st.Coalesced, st.Hits)
}

// runHTTP demonstrates the same cache behaviour against a running gpad.
func runHTTP(addr string) error {
	base := "http://" + addr
	req, err := json.Marshal(map[string]any{
		"asm": kernelSrc, "gridX": 640, "blockX": 256, "seed": 11,
	})
	if err != nil {
		return err
	}
	post := func() (map[string]any, error) {
		resp, err := http.Post(base+"/v1/advise", "application/json", bytes.NewReader(req))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("POST /v1/advise: %s: %s", resp.Status, body)
		}
		var out map[string]any
		if err := json.Unmarshal(body, &out); err != nil {
			return nil, err
		}
		return out, nil
	}
	cold, err := post()
	if err != nil {
		return err
	}
	warm, err := post()
	if err != nil {
		return err
	}
	fmt.Printf("cold: cached=%v cycles=%v\nwarm: cached=%v report identical=%v\n",
		cold["cached"], cold["cycles"], warm["cached"], warm["report"] == cold["report"])
	resp, err := http.Get(base + "/statsz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	stats, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	fmt.Printf("statsz: %s", stats)
	return nil
}
