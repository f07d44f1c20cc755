package gpusim

import (
	"context"
	"errors"
	"testing"

	"gpa/internal/apierr"
	"gpa/internal/arch"
	"gpa/internal/sass"
)

// memBound: a pointer-chase-like loop where every iteration waits on a
// global load immediately.
const memBoundSrc = `
.func membound global
.line mb.cu 1
	MOV R0, 0x0 {S:2}
LOOP:
.line mb.cu 2
	LDG.E.32 R4, [R2] {S:1, W:0}
.line mb.cu 3
	IADD R5, R4, 0x1 {S:4, Q:0}
	IADD R0, R0, 0x1 {S:4}
	ISETP P0, R0, 0x10 {S:4}
BR0:	@P0 BRA LOOP {S:5}
	EXIT
`

// syncy: half the warps spin longer before a barrier.
const syncSrc = `
.func syncy global
.line s.cu 1
	MOV R0, 0x0 {S:2}
LOOP:
	FFMA R1, R1, R2, R3 {S:4}
	IADD R0, R0, 0x1 {S:4}
	ISETP P0, R0, 0x20 {S:4}
BR0:	@P0 BRA LOOP {S:5}
.line s.cu 5
	BAR.SYNC {S:2}
	FFMA R1, R1, R2, R3 {S:4}
	EXIT
`

type captureSink struct {
	samples []Sample
}

func (c *captureSink) Record(s Sample) { c.samples = append(c.samples, s) }

func testConfig(sink SampleSink) Config {
	g := arch.VoltaV100()
	return Config{GPU: g, SimSMs: 1, SamplePeriod: 32, Sink: sink, Seed: 1}
}

func runKernel(t *testing.T, src, entry string, launch LaunchConfig, spec *Spec, cfg Config) (*Result, *captureSink) {
	t.Helper()
	m := sass.MustAssemble(src)
	p, err := Load(m)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	var wl Workload = NopWorkload{}
	if spec != nil {
		wl, err = spec.Bind(p)
		if err != nil {
			t.Fatalf("Bind: %v", err)
		}
	}
	return runWorkload(t, p, launch, wl, cfg)
}

// runWorkload is runKernel for a loaded program and a Workload of the
// test's own.
func runWorkload(t *testing.T, p *Program, launch LaunchConfig, wl Workload, cfg Config) (*Result, *captureSink) {
	t.Helper()
	sink := &captureSink{}
	if cfg.Sink == nil {
		cfg.Sink = sink
	} else if cs, ok := cfg.Sink.(*captureSink); ok {
		sink = cs
	}
	res, err := Run(context.Background(), p, launch, wl, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res, sink
}

// slowLoad is a bound Spec whose variable-latency instruction at pc
// takes cycles: a latency no Spec expresses. Its TakenStability stays
// the spec's, so its loops fast-forward as the spec's do.
type slowLoad struct {
	*boundWorkload
	pc, cycles int
}

func (l slowLoad) Latency(_ WarpCtx, pc, _ int) int {
	if pc == l.pc {
		return l.cycles
	}
	return 0
}

// evenWarpsTake takes the conditional branch at pc in the even warps of
// each block and no other branch. It promises no outcomes (no
// TakenStability), as any branch pattern of a caller's own.
type evenWarpsTake struct{ pc int }

func (e evenWarpsTake) Taken(w WarpCtx, pc, _ int) bool { return pc == e.pc && w.WarpInBlock%2 == 0 }
func (evenWarpsTake) Latency(WarpCtx, int, int) int     { return 0 }
func (evenWarpsTake) Transactions(int) int              { return 0 }

// TestLoadRefusesUnfollowableControl: control flow the simulator
// cannot follow is refused with ErrBadKernel when the program loads,
// not met by a warp at a PC outside the program: a branch whose target
// is a register, not a label, and a function ending in a conditional
// branch, which a warp that falls through runs off.
func TestLoadRefusesUnfollowableControl(t *testing.T) {
	for _, body := range []string{
		"BRA R1\n\tEXIT",
		"JMP R1\n\tEXIT",
		"@P0 BRX R1\n\tEXIT",
		"L: IADD R0, R0, 0x1 {S:4}\n\t@P0 BRA L",
	} {
		_, err := Load(sass.MustAssemble(".func k global\n\t" + body + "\n"))
		if !errors.Is(err, apierr.ErrBadKernel) {
			t.Errorf("Load(%q) = %v, want ErrBadKernel", body, err)
		}
	}
}

func TestProgramLayout(t *testing.T) {
	src := `
.func helper device
	IADD R0, R0, 0x1 {S:4}
	RET
.func main global
	CAL helper {S:2}
	EXIT
`
	m := sass.MustAssemble(src)
	p, err := Load(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Instrs) != 4 {
		t.Fatalf("flat size = %d, want 4", len(p.Instrs))
	}
	entry, err := p.EntryOf("main")
	if err != nil || entry != 2 {
		t.Errorf("EntryOf(main) = %d, %v; want 2", entry, err)
	}
	if p.Target(2) != 0 {
		t.Errorf("CAL target = %d, want 0", p.Target(2))
	}
	if p.FuncName(0) != "helper" || p.FuncName(3) != "main" {
		t.Errorf("FuncName mapping wrong")
	}
	if p.LocalIndex(3) != 1 {
		t.Errorf("LocalIndex(3) = %d, want 1", p.LocalIndex(3))
	}
}

func TestRunCompletesAndCountsIssues(t *testing.T) {
	launch := LaunchConfig{Entry: "membound", Grid: Dim(1), Block: Dim(64), RegsPerThread: 16}
	spec := &Spec{Trips: map[Site]TripFunc{{"membound", "BR0"}: UniformTrips(15)}}
	res, _ := runKernel(t, memBoundSrc, "membound", launch, spec, testConfig(nil))
	if res.Cycles <= 0 {
		t.Fatal("kernel reported zero cycles")
	}
	// 2 warps; loop body runs 16 times (15 taken + final fall-through).
	// LDG at flat index 1 issues 2*16 = 32 times.
	if got := res.IssuedPerPC[1]; got != 32 {
		t.Errorf("LDG issued %d times, want 32", got)
	}
	// MOV once per warp.
	if got := res.IssuedPerPC[0]; got != 2 {
		t.Errorf("MOV issued %d times, want 2", got)
	}
	// EXIT once per warp.
	if got := res.IssuedPerPC[6]; got != 2 {
		t.Errorf("EXIT issued %d times, want 2", got)
	}
}

func TestMemoryDependencyStallsDominate(t *testing.T) {
	launch := LaunchConfig{Entry: "membound", Grid: Dim(1), Block: Dim(64), RegsPerThread: 16}
	spec := &Spec{Trips: map[Site]TripFunc{{"membound", "BR0"}: UniformTrips(200)}}
	_, sink := runKernel(t, memBoundSrc, "membound", launch, spec, testConfig(nil))
	if len(sink.samples) == 0 {
		t.Fatal("no samples recorded")
	}
	counts := map[StallReason]int{}
	latency := 0
	for _, s := range sink.samples {
		counts[s.Reason]++
		if !s.Active {
			latency++
		}
	}
	if counts[ReasonMemoryDependency] == 0 {
		t.Fatalf("no memory dependency stalls in a memory-bound loop: %v", counts)
	}
	// With only 2 warps waiting on a 400-cycle load, memory dependency
	// must dominate every other reason.
	for r, n := range counts {
		if r != ReasonMemoryDependency && r != ReasonNone && n > counts[ReasonMemoryDependency] {
			t.Errorf("reason %v (%d) exceeds memory dependency (%d)", r, n, counts[ReasonMemoryDependency])
		}
	}
	if latency == 0 {
		t.Error("expected latency samples in a memory-bound kernel")
	}
	// Stalled samples in the loop wait at the IADD consumer (flat 2).
	stallAtConsumer := 0
	for _, s := range sink.samples {
		if s.Reason == ReasonMemoryDependency && s.PC == 2 {
			stallAtConsumer++
		}
	}
	if stallAtConsumer == 0 {
		t.Error("memory dependency stalls should be observed at the consumer IADD")
	}
}

func TestSyncStalls(t *testing.T) {
	launch := LaunchConfig{Entry: "syncy", Grid: Dim(2), Block: Dim(256), RegsPerThread: 16}
	// Odd warps iterate 10x longer: heavy barrier imbalance.
	spec := &Spec{Trips: map[Site]TripFunc{{"syncy", "BR0"}: func(w WarpCtx) int {
		if w.WarpInBlock%2 == 1 {
			return 300
		}
		return 30
	}}}
	res, sink := runKernel(t, syncSrc, "syncy", launch, spec, testConfig(nil))
	if res.Cycles <= 0 {
		t.Fatal("no cycles")
	}
	syncs := 0
	for _, s := range sink.samples {
		if s.Reason == ReasonSync {
			syncs++
		}
	}
	if syncs == 0 {
		t.Fatal("imbalanced barrier kernel produced no synchronization stalls")
	}
	// Balanced version: far fewer sync stalls.
	specBal := &Spec{Trips: map[Site]TripFunc{{"syncy", "BR0"}: UniformTrips(165)}}
	sinkBal := &captureSink{}
	cfgBal := testConfig(sinkBal)
	_, _ = runKernel(t, syncSrc, "syncy", launch, specBal, cfgBal)
	syncsBal := 0
	for _, s := range sinkBal.samples {
		if s.Reason == ReasonSync {
			syncsBal++
		}
	}
	if syncsBal*4 >= syncs {
		t.Errorf("balanced kernel sync stalls (%d) should be well under imbalanced (%d)", syncsBal, syncs)
	}
}

func TestMemoryThrottle(t *testing.T) {
	// Uncoalesced loads: 32 transactions per access exhaust the MSHRs.
	launch := LaunchConfig{Entry: "membound", Grid: Dim(4), Block: Dim(512), RegsPerThread: 16}
	spec := &Spec{
		Trips:        map[Site]TripFunc{{"membound", "BR0"}: UniformTrips(60)},
		Transactions: map[Site]int{{"membound", "LOOP"}: 32},
	}
	_, sink := runKernel(t, memBoundSrc, "membound", launch, spec, testConfig(nil))
	throttle := 0
	for _, s := range sink.samples {
		if s.Reason == ReasonMemoryThrottle {
			throttle++
		}
	}
	if throttle == 0 {
		t.Error("32-transaction accesses from 16 warps should throttle the MSHRs")
	}
}

func TestOccupancyLatencyHiding(t *testing.T) {
	// The same total work with more resident warps should finish sooner
	// (latency hiding), using a memory-bound kernel: 8 blocks of 32
	// threads on one SM vs 1 block of 256 threads.
	spec := &Spec{Trips: map[Site]TripFunc{{"membound", "BR0"}: UniformTrips(50)}}
	g := arch.VoltaV100()
	g.NumSMs = 1 // force all blocks onto the simulated SM
	cfgA := Config{GPU: g, SimSMs: 1, Seed: 1}
	// Few warps resident: 1 block of 32 threads, 8 blocks sequentially
	// (shared memory forces one block at a time).
	launchA := LaunchConfig{Entry: "membound", Grid: Dim(8), Block: Dim(32),
		RegsPerThread: 16, SharedMemPerBlock: 64 * 1024}
	resA, _ := runKernel(t, memBoundSrc, "membound", launchA, spec, cfgA)
	// Same work in one 256-thread block: 8 warps hide latency together.
	cfgB := Config{GPU: g, SimSMs: 1, Seed: 1}
	launchB := LaunchConfig{Entry: "membound", Grid: Dim(1), Block: Dim(256), RegsPerThread: 16}
	resB, _ := runKernel(t, memBoundSrc, "membound", launchB, spec, cfgB)
	if resB.Cycles >= resA.Cycles {
		t.Errorf("8 co-resident warps (%d cycles) should beat 8 serialized blocks (%d cycles)",
			resB.Cycles, resA.Cycles)
	}
}

func TestDeterminism(t *testing.T) {
	launch := LaunchConfig{Entry: "membound", Grid: Dim(2), Block: Dim(128), RegsPerThread: 16}
	spec := &Spec{Trips: map[Site]TripFunc{{"membound", "BR0"}: UniformTrips(40)}}
	resA, sinkA := runKernel(t, memBoundSrc, "membound", launch, spec, testConfig(nil))
	resB, sinkB := runKernel(t, memBoundSrc, "membound", launch, spec, testConfig(nil))
	if resA.Cycles != resB.Cycles {
		t.Errorf("cycles differ across identical runs: %d vs %d", resA.Cycles, resB.Cycles)
	}
	if len(sinkA.samples) != len(sinkB.samples) {
		t.Fatalf("sample counts differ: %d vs %d", len(sinkA.samples), len(sinkB.samples))
	}
	for i := range sinkA.samples {
		if sinkA.samples[i] != sinkB.samples[i] {
			t.Fatalf("sample %d differs: %+v vs %+v", i, sinkA.samples[i], sinkB.samples[i])
		}
	}
}

func TestCallAndReturn(t *testing.T) {
	src := `
.func twiddle device
.line t.cu 9
	FFMA R1, R1, R2, R3 {S:4}
	RET {S:2}
.func main global
.line m.cu 1
	MOV R0, 0x0 {S:2}
LOOP:
	CAL twiddle {S:2}
	IADD R0, R0, 0x1 {S:4}
	ISETP P0, R0, 0x4 {S:4}
BR0:	@P0 BRA LOOP {S:5}
	EXIT
`
	launch := LaunchConfig{Entry: "main", Grid: Dim(1), Block: Dim(32), RegsPerThread: 16}
	spec := &Spec{Trips: map[Site]TripFunc{{"main", "BR0"}: UniformTrips(3)}}
	res, _ := runKernel(t, src, "main", launch, spec, testConfig(nil))
	// twiddle body (flat 0) runs 4 times (4 loop iterations).
	if got := res.IssuedPerPC[0]; got != 4 {
		t.Errorf("device function body issued %d, want 4", got)
	}
	if got := res.IssuedPerPC[1]; got != 4 {
		t.Errorf("RET issued %d, want 4", got)
	}
}

func TestBlockWaves(t *testing.T) {
	// More blocks than one SM can host: slots refill across waves.
	g := arch.VoltaV100()
	g.NumSMs = 1
	launch := LaunchConfig{Entry: "membound", Grid: Dim(6), Block: Dim(512),
		RegsPerThread: 16, SharedMemPerBlock: 32 * 1024} // 3 blocks/SM resident
	spec := &Spec{Trips: map[Site]TripFunc{{"membound", "BR0"}: UniformTrips(10)}}
	cfg := Config{GPU: g, SimSMs: 1, Seed: 1}
	res, _ := runKernel(t, memBoundSrc, "membound", launch, spec, cfg)
	// All 6 blocks execute: MOV (flat 0) issues once per warp: 6*16.
	if got := res.IssuedPerPC[0]; got != 96 {
		t.Errorf("MOV issued %d, want 96 (6 blocks x 16 warps)", got)
	}
}

func TestRunErrors(t *testing.T) {
	m := sass.MustAssemble(memBoundSrc)
	p, err := Load(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), p, LaunchConfig{Entry: "nothere", Grid: Dim(1), Block: Dim(32)}, nil, testConfig(nil)); err == nil {
		t.Error("unknown entry must fail")
	}
	// Zero dimensions default to 1, as CUDA's dim3 does.
	if got := (Dim3{}).Count(); got != 1 {
		t.Errorf("Dim3{}.Count() = %d, want 1", got)
	}
	if got := (Dim3{X: 4, Y: 3}).Count(); got != 12 {
		t.Errorf("Count = %d, want 12", got)
	}
	if _, err := Run(context.Background(), p, LaunchConfig{Entry: "membound", Grid: Dim(1), Block: Dim(2048)}, nil, testConfig(nil)); err == nil {
		t.Error("oversized block must fail")
	}
	bad := Config{}
	if _, err := Run(context.Background(), p, LaunchConfig{Entry: "membound", Grid: Dim(1), Block: Dim(32)}, nil, bad); err == nil {
		t.Error("nil GPU must fail")
	}
}

func TestSamplesCarryPCsWithinProgram(t *testing.T) {
	launch := LaunchConfig{Entry: "membound", Grid: Dim(1), Block: Dim(64), RegsPerThread: 16}
	spec := &Spec{Trips: map[Site]TripFunc{{"membound", "BR0"}: UniformTrips(30)}}
	_, sink := runKernel(t, memBoundSrc, "membound", launch, spec, testConfig(nil))
	m := sass.MustAssemble(memBoundSrc)
	n := len(m.Function("membound").Instrs)
	active, withReason := 0, 0
	for _, s := range sink.samples {
		if s.PC < 0 || s.PC >= n {
			t.Fatalf("sample PC %d out of range", s.PC)
		}
		if s.Active {
			active++
		}
		if s.Reason != ReasonNone {
			withReason++
		}
	}
	if active == 0 {
		t.Error("expected some active samples")
	}
	if withReason == 0 {
		t.Error("expected some stall samples")
	}
}
