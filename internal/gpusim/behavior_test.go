package gpusim

import (
	"testing"

	"gpa/internal/arch"
	"gpa/internal/sass"
)

// TestWARBarrierStalls: a store's read barrier delays the rewrite of its
// data register (execution dependency).
func TestWARBarrierStalls(t *testing.T) {
	src := `
.func war global
	MOV R0, 0x0 {S:2}
LOOP:
	STG.E.32 [R2], R6 {S:1, R:4}
	MOV R6, 0x7 {S:2, Q:4}
	IADD R0, R0, 0x1 {S:4}
	ISETP P0, R0, 0x40 {S:4}
BR0:	@P0 BRA LOOP {S:5}
	EXIT
`
	launch := LaunchConfig{Entry: "war", Grid: Dim(1), Block: Dim(64), RegsPerThread: 16}
	spec := &Spec{Trips: map[Site]TripFunc{{"war", "BR0"}: UniformTrips(100)}}
	_, sink := runKernel(t, src, "war", launch, spec, testConfig(nil))
	execDeps := 0
	for _, s := range sink.samples {
		if s.Reason == ReasonExecutionDependency && s.PC == 2 {
			execDeps++
		}
	}
	if execDeps == 0 {
		t.Error("WAR hazard via read barrier produced no execution dependency stalls at the MOV")
	}
}

// TestInstructionFetchStalls: a loop body larger than the instruction
// cache misses on line crossings when few warps run (no drafting).
func TestInstructionFetchStalls(t *testing.T) {
	var sb []byte
	sb = append(sb, ".func big global\n\tMOV R0, 0x0 {S:2}\nLOOP:\n"...)
	for i := 0; i < 850; i++ {
		sb = append(sb, "\tFFMA R8, R8, R16, R8 {S:2}\n"...)
	}
	sb = append(sb, "\tIADD R0, R0, 0x1 {S:4}\n\tISETP P0, R0, 0x7fffff {S:4}\nBR0:\t@P0 BRA LOOP {S:5}\n\tEXIT\n"...)
	launch := LaunchConfig{Entry: "big", Grid: Dim(80), Block: Dim(256), RegsPerThread: 32}
	spec := &Spec{Trips: map[Site]TripFunc{{"big", "BR0"}: UniformTrips(8)}}
	_, sink := runKernel(t, string(sb), "big", launch, spec, testConfig(nil))
	fetch := 0
	for _, s := range sink.samples {
		if s.Reason == ReasonInstructionFetch {
			fetch++
		}
	}
	if fetch == 0 {
		t.Error("an 850-instruction loop body should overflow the 768-instruction cache")
	}
	// A small loop body must not produce steady fetch stalls.
	small := `
.func small global
	MOV R0, 0x0 {S:2}
LOOP:
	FFMA R8, R8, R16, R8 {S:2}
	IADD R0, R0, 0x1 {S:4}
	ISETP P0, R0, 0x7fffff {S:4}
BR0:	@P0 BRA LOOP {S:5}
	EXIT
`
	spec2 := &Spec{Trips: map[Site]TripFunc{{"small", "BR0"}: UniformTrips(800)}}
	launch2 := LaunchConfig{Entry: "small", Grid: Dim(80), Block: Dim(256), RegsPerThread: 32}
	_, sink2 := runKernel(t, small, "small", launch2, spec2, testConfig(nil))
	fetch2 := 0
	for _, s := range sink2.samples {
		if s.Reason == ReasonInstructionFetch {
			fetch2++
		}
	}
	if fetch2 > len(sink2.samples)/50 {
		t.Errorf("small loop shows %d/%d fetch stalls; cache should hold it", fetch2, len(sink2.samples))
	}
}

// TestPipeBusyFP64: a pure FP64 stream saturates the half-rate pipe.
func TestPipeBusyFP64(t *testing.T) {
	src := `
.func dbl global
	MOV R0, 0x0 {S:2}
LOOP:
	DFMA R8, R8, R16, R8 {S:1}
	DFMA R10, R10, R18, R10 {S:1}
	DFMA R12, R12, R20, R12 {S:1}
	IADD R0, R0, 0x1 {S:4}
	ISETP P0, R0, 0x7fffff {S:4}
BR0:	@P0 BRA LOOP {S:5}
	EXIT
`
	launch := LaunchConfig{Entry: "dbl", Grid: Dim(80), Block: Dim(512), RegsPerThread: 32}
	spec := &Spec{Trips: map[Site]TripFunc{{"dbl", "BR0"}: UniformTrips(200)}}
	_, sink := runKernel(t, src, "dbl", launch, spec, testConfig(nil))
	pipe := 0
	for _, s := range sink.samples {
		if s.Reason == ReasonPipeBusy {
			pipe++
		}
	}
	if pipe == 0 {
		t.Error("saturated FP64 pipe produced no pipe-busy stalls")
	}
}

// TestDivergentBranchPattern: a workload's Taken steers a conditional
// branch per warp.
func TestDivergentBranchPattern(t *testing.T) {
	src := `
.func div global
	MOV R0, 0x0 {S:2}
	ISETP P0, R1, 0x0 {S:4}
BR0:	@P0 BRA SKIP {S:5}
	FFMA R8, R8, R16, R8 {S:2}
SKIP:
	EXIT
`
	launch := LaunchConfig{Entry: "div", Grid: Dim(1), Block: Dim(128), RegsPerThread: 16}
	p, err := Load(sass.MustAssemble(src))
	if err != nil {
		t.Fatal(err)
	}
	br0, err := p.FlatIndex("div", "BR0")
	if err != nil {
		t.Fatal(err)
	}
	res, _ := runWorkload(t, p, launch, evenWarpsTake{pc: br0}, testConfig(nil))
	// 4 warps: 2 take the branch and skip the FFMA at flat index 3.
	if got := res.IssuedPerPC[3]; got != 2 {
		t.Errorf("FFMA issued %d times, want 2 (half the warps skip)", got)
	}
}

// TestLatencyOverride: a workload latency override stretches a load.
func TestLatencyOverride(t *testing.T) {
	src := `
.func lat global
LD:	LDG.E.32 R4, [R2] {S:1, W:0}
	IADD R5, R4, 0x1 {S:4, Q:0}
	EXIT
`
	launch := LaunchConfig{Entry: "lat", Grid: Dim(1), Block: Dim(32), RegsPerThread: 16}
	p, err := Load(sass.MustAssemble(src))
	if err != nil {
		t.Fatal(err)
	}
	ld, err := p.FlatIndex("lat", "LD")
	if err != nil {
		t.Fatal(err)
	}
	g := arch.VoltaV100()
	slow := slowLoad{boundWorkload: &boundWorkload{}, pc: ld, cycles: 5000}
	resSlow, _ := runWorkload(t, p, launch, slow, Config{GPU: g, SimSMs: 1, Seed: 1})
	resFast, _ := runWorkload(t, p, launch, NopWorkload{}, Config{GPU: g, SimSMs: 1, Seed: 1})
	if resSlow.Cycles <= resFast.Cycles+3000 {
		t.Errorf("latency override had no effect: %d vs %d", resSlow.Cycles, resFast.Cycles)
	}
}

// TestMSHRAccounting: transactions are released; the kernel completes
// even under heavy throttling (no MSHR leak).
func TestMSHRAccounting(t *testing.T) {
	src := `
.func thr global
	MOV R0, 0x0 {S:2}
LOOP:
LD:	LDG.E.32 R4, [R2] {S:1, W:0}
	IADD R5, R4, 0x1 {S:4, Q:0}
	IADD R0, R0, 0x1 {S:4}
	ISETP P0, R0, 0x7fffff {S:4}
BR0:	@P0 BRA LOOP {S:5}
	EXIT
`
	launch := LaunchConfig{Entry: "thr", Grid: Dim(2), Block: Dim(1024), RegsPerThread: 16}
	spec := &Spec{
		Trips:        map[Site]TripFunc{{"thr", "BR0"}: UniformTrips(30)},
		Transactions: map[Site]int{{"thr", "LD"}: 32},
	}
	res, sink := runKernel(t, src, "thr", launch, spec, testConfig(nil))
	if res.Cycles <= 0 {
		t.Fatal("kernel did not complete under throttling")
	}
	throttle := 0
	for _, s := range sink.samples {
		if s.Reason == ReasonMemoryThrottle {
			throttle++
		}
	}
	if throttle == 0 {
		t.Error("32-transaction loads from 32 warps must throttle 64 MSHRs")
	}
}

// TestSamplePeriodRobustness: halving the sampling period roughly
// doubles the samples but leaves the stall-reason distribution stable.
func TestSamplePeriodRobustness(t *testing.T) {
	launch := LaunchConfig{Entry: "membound", Grid: Dim(80), Block: Dim(256), RegsPerThread: 32}
	spec := &Spec{Trips: map[Site]TripFunc{{"membound", "BR0"}: UniformTrips(150)}}
	shares := map[int]float64{}
	counts := map[int]int{}
	for _, period := range []int{32, 64, 128} {
		sink := &captureSink{}
		cfg := Config{GPU: arch.VoltaV100(), SimSMs: 1, SamplePeriod: period, Sink: sink, Seed: 5}
		_, _ = runKernel(t, memBoundSrc, "membound", launch, spec, cfg)
		mem := 0
		for _, s := range sink.samples {
			if s.Reason == ReasonMemoryDependency {
				mem++
			}
		}
		counts[period] = len(sink.samples)
		shares[period] = float64(mem) / float64(len(sink.samples))
	}
	if counts[32] < counts[64] || counts[64] < counts[128] {
		t.Errorf("sample counts not monotone in rate: %v", counts)
	}
	for _, p := range []int{64, 128} {
		diff := shares[p] - shares[32]
		if diff < -0.15 || diff > 0.15 {
			t.Errorf("memory-dependency share unstable across periods: %v", shares)
		}
	}
}

// TestSharedMemoryDependency: LDS consumers report execution
// dependencies (shared class), not memory dependencies.
func TestSharedMemoryDependency(t *testing.T) {
	src := `
.func sh global
	MOV R0, 0x0 {S:2}
LOOP:
	LDS.32 R4, [R1] {S:1, W:0}
	FFMA R5, R4, R6, R5 {S:4, Q:0}
	IADD R0, R0, 0x1 {S:4}
	ISETP P0, R0, 0x7fffff {S:4}
BR0:	@P0 BRA LOOP {S:5}
	EXIT
`
	launch := LaunchConfig{Entry: "sh", Grid: Dim(1), Block: Dim(64), RegsPerThread: 16}
	spec := &Spec{Trips: map[Site]TripFunc{{"sh", "BR0"}: UniformTrips(300)}}
	_, sink := runKernel(t, src, "sh", launch, spec, testConfig(nil))
	exec, mem := 0, 0
	for _, s := range sink.samples {
		switch s.Reason {
		case ReasonExecutionDependency:
			exec++
		case ReasonMemoryDependency:
			mem++
		}
	}
	if exec == 0 {
		t.Error("shared-memory consumer produced no execution dependency stalls")
	}
	if mem > exec {
		t.Errorf("LDS consumers misclassified: %d memory vs %d execution", mem, exec)
	}
}

func TestSpecBindErrors(t *testing.T) {
	m := sass.MustAssemble(memBoundSrc)
	p, err := Load(m)
	if err != nil {
		t.Fatal(err)
	}
	bad := &Spec{Trips: map[Site]TripFunc{{"membound", "NOPE"}: UniformTrips(1)}}
	if _, err := bad.Bind(p); err == nil {
		t.Error("unknown label must fail to bind")
	}
	bad2 := &Spec{Trips: map[Site]TripFunc{{"ghost", "LOOP"}: UniformTrips(1)}}
	if _, err := bad2.Bind(p); err == nil {
		t.Error("unknown function must fail to bind")
	}
}
