package advisor

import (
	"context"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"gpa/internal/arch"
	"gpa/internal/blamer"
	"gpa/internal/gpusim"
	"gpa/internal/profiler"
	"gpa/internal/sass"
)

func TestStallEliminationEquation2(t *testing.T) {
	ctx := &Context{T: 100}
	cases := []struct {
		m    float64
		want float64
	}{
		{0, 1},
		{20, 1.25},
		{50, 2},
		{90, 10},
	}
	for _, tc := range cases {
		got := StallElimination{}.Estimate(ctx, &Match{Matched: tc.m})
		if math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Se(M=%v) = %v, want %v", tc.m, got, tc.want)
		}
	}
	// M approaching T must not blow up to infinity.
	if got := (StallElimination{}).Estimate(ctx, &Match{Matched: 100}); math.IsInf(got, 1) {
		t.Error("Se(M=T) must stay finite")
	}
}

func TestLatencyHidingEquation4(t *testing.T) {
	// T=100, A=30, ML=50: min(A,ML)=30 -> 100/70.
	ctx := &Context{T: 100, A: 30, L: 70}
	got := LatencyHiding{}.Estimate(ctx, &Match{MatchedLatency: 50})
	want := 100.0 / 70.0
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("Sh = %v, want %v", got, want)
	}
	// ML < A: bounded by ML.
	got = LatencyHiding{}.Estimate(ctx, &Match{MatchedLatency: 10})
	want = 100.0 / 90.0
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("Sh = %v, want %v", got, want)
	}
}

// TestTheorem51 property-checks the paper's Theorem 5.1: the latency
// hiding speedup never exceeds 2x, for any sample mix with A+L=T and
// ML <= L.
func TestTheorem51(t *testing.T) {
	f := func(a, l, ml uint16) bool {
		A := int64(a)%5000 + 1
		L := int64(l)%5000 + 1
		ML := int64(ml) % (L + 1)
		ctx := &Context{T: A + L, A: A, L: L}
		s := LatencyHiding{}.Estimate(ctx, &Match{MatchedLatency: float64(ML)})
		return s >= 1 && s <= 2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestScopeAnalysisEquation5(t *testing.T) {
	// Kernel: T=100, A=40. A loop scope holds only 5 active samples but
	// 30 matched latency samples: the scope bound (5) applies, not the
	// kernel bound (min(40,30)=30).
	ctx := &Context{T: 100, A: 40, L: 60}
	m := &Match{
		MatchedLatency: 30,
		Scopes:         []Scope{{Label: "loop", Actives: 5, MatchedLatency: 30}},
	}
	got := LatencyHiding{}.Estimate(ctx, m)
	want := 100.0 / 95.0
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("Shl = %v, want %v (scope-limited)", got, want)
	}
	// A scope with plenty of actives converges to the kernel-level
	// estimate.
	m.Scopes[0].Actives = 1000
	got = LatencyHiding{}.Estimate(ctx, m)
	want = 100.0 / 70.0
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("Shl = %v, want %v", got, want)
	}
}

func TestParallelEquations(t *testing.T) {
	// Block increase: W=8 -> 4 over twice the SMs. RI=0.3.
	prof := &profiler.Profile{WarpsPerScheduler: 8, IssueRatio: 0.3, Blocks: 16}
	ctx := &Context{GPU: arch.VoltaV100(), Profile: prof, T: 1000}
	est := Parallel{WNew: func(*Context) float64 { return 4 }}
	got := est.Estimate(ctx, &Match{})
	i := 1 - math.Pow(0.7, 8)
	iNew := 1 - math.Pow(0.7, 4)
	want := 2 * (iNew / i)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("Sp = %v, want %v", got, want)
	}
	if got <= 1 || got >= 2 {
		t.Errorf("block-increase speedup %v should land in (1,2) at RI=0.3", got)
	}
	// Thread increase with f=CW collapses to CI.
	estT := Parallel{
		WNew: func(*Context) float64 { return 16 },
		F:    func(_ *Context, w, wNew float64) float64 { return wNew / w },
	}
	prof.IssueRatio = 0.05
	got = estT.Estimate(ctx, &Match{})
	i = 1 - math.Pow(0.95, 8)
	iNew = 1 - math.Pow(0.95, 16)
	want = iNew / i
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("thread-increase Sp = %v, want CI = %v", got, want)
	}
	if want <= 1.3 {
		t.Fatalf("test premise broken: CI should be large at low RI, got %v", want)
	}
}

// buildTestContext profiles a kernel and builds the advisor context.
func buildTestContext(t *testing.T, src, entry string, launch gpusim.LaunchConfig,
	spec *gpusim.Spec) *Context {
	t.Helper()
	mod := sass.MustAssemble(src)
	prog, err := gpusim.Load(mod)
	if err != nil {
		t.Fatal(err)
	}
	var wl gpusim.Workload = gpusim.NopWorkload{}
	if spec != nil {
		wl, err = spec.Bind(prog)
		if err != nil {
			t.Fatal(err)
		}
	}
	prof, err := profiler.CollectProgram(context.Background(), prog, launch, wl, profiler.Options{
		GPU: arch.VoltaV100(), SimSMs: 1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := BuildContext(mod, prof, arch.VoltaV100(), blamer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

const memLoopSrc = `
.func memloop global
.line ml.cu 10
	MOV R0, 0x0 {S:2}
LOOP:
.line ml.cu 12
	LDG.E.32 R4, [R2] {S:1, W:0}
.line ml.cu 13
	FADD R5, R4, R5 {S:4, Q:0}
	IADD R0, R0, 0x1 {S:4}
	ISETP P0, R0, 0x40 {S:4}
BR0:	@P0 BRA LOOP {S:5}
	EXIT
`

func memLoopCtx(t *testing.T) *Context {
	return buildTestContext(t, memLoopSrc, "memloop",
		gpusim.LaunchConfig{Entry: "memloop", Grid: gpusim.Dim(2560), Block: gpusim.Dim(256), RegsPerThread: 32},
		&gpusim.Spec{Trips: map[gpusim.Site]gpusim.TripFunc{
			{Func: "memloop", Label: "BR0"}: gpusim.UniformTrips(120),
		}})
}

func TestAdviseMemoryBoundLoop(t *testing.T) {
	ctx := memLoopCtx(t)
	adv := Advise(ctx)
	if len(adv.Entries) == 0 {
		t.Fatal("no advice entries")
	}
	byName := map[string]AdviceEntry{}
	for _, e := range adv.Entries {
		byName[e.Optimizer] = e
	}
	lu, ok := byName["GPULoopUnrollOptimizer"]
	if !ok {
		t.Fatalf("loop unrolling absent: %+v", adv.Entries)
	}
	if lu.Ratio <= 0.3 {
		t.Errorf("loop unrolling matched ratio %v; memory-dependency stalls should dominate", lu.Ratio)
	}
	if lu.Speedup <= 1 || lu.Speedup > 2 {
		t.Errorf("loop unrolling speedup %v out of (1,2]", lu.Speedup)
	}
	cr, ok := byName["GPUCodeReorderOptimizer"]
	if !ok {
		t.Fatal("code reordering absent")
	}
	if len(cr.Hotspots) == 0 {
		t.Fatal("code reordering has no hotspots")
	}
	h := cr.Hotspots[0]
	if h.Distance <= 0 {
		t.Errorf("hotspot distance = %d", h.Distance)
	}
	if !strings.Contains(h.From, "ml.cu:12") {
		t.Errorf("hotspot From = %q, want the LDG line ml.cu:12", h.From)
	}
	if !strings.Contains(h.To, "ml.cu:13") {
		t.Errorf("hotspot To = %q, want the FADD line ml.cu:13", h.To)
	}
	if !strings.Contains(h.From, "in Loop at Line 10") && !strings.Contains(h.From, "in Loop at Line 12") {
		t.Errorf("hotspot From lacks loop context: %q", h.From)
	}
}

func TestRenderFigure8Shape(t *testing.T) {
	ctx := memLoopCtx(t)
	adv := Advise(ctx)
	out := adv.String()
	for _, want := range []string{
		"GPA performance report for kernel memloop",
		"estimate speedup",
		"Hot BLAME GINS:LAT_",
		"distance",
		"From memloop at ml.cu:12",
		"ratio",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// Entries must be sorted by speedup, descending.
	for i := 1; i < len(adv.Entries); i++ {
		if adv.Entries[i].Speedup > adv.Entries[i-1].Speedup+1e-9 {
			t.Errorf("entries not sorted: %v after %v",
				adv.Entries[i].Speedup, adv.Entries[i-1].Speedup)
		}
	}
}

const barImbalanceSrc = `
.func barky global
.line bk.cu 5
	MOV R0, 0x0 {S:2}
LOOP:
	FFMA R1, R1, R2, R3 {S:4}
	IADD R0, R0, 0x1 {S:4}
	ISETP P0, R0, 0x20 {S:4}
BR0:	@P0 BRA LOOP {S:5}
.line bk.cu 9
	BAR.SYNC {S:2}
	FFMA R1, R1, R2, R3 {S:4}
	EXIT
`

func TestAdviseWarpBalance(t *testing.T) {
	ctx := buildTestContext(t, barImbalanceSrc, "barky",
		gpusim.LaunchConfig{Entry: "barky", Grid: gpusim.Dim(2560), Block: gpusim.Dim(256), RegsPerThread: 32},
		&gpusim.Spec{Trips: map[gpusim.Site]gpusim.TripFunc{
			{Func: "barky", Label: "BR0"}: func(w gpusim.WarpCtx) int {
				if w.WarpInBlock == 0 {
					return 600
				}
				return 30
			},
		}})
	adv := Advise(ctx)
	var wb *AdviceEntry
	for i := range adv.Entries {
		if adv.Entries[i].Optimizer == "GPUWarpBalanceOptimizer" {
			wb = &adv.Entries[i]
		}
	}
	if wb == nil {
		t.Fatalf("warp balance absent: %+v", adv.Entries)
	}
	if wb.Ratio < 0.2 {
		t.Errorf("warp balance ratio %v; sync stalls should be heavy", wb.Ratio)
	}
	if len(wb.Hotspots) == 0 || !strings.Contains(wb.Hotspots[0].From, "bk.cu:9") {
		t.Errorf("warp balance hotspot should point at the BAR line: %+v", wb.Hotspots)
	}
	// Top-ranked entry overall should be warp balance for this kernel.
	if adv.Entries[0].Optimizer != "GPUWarpBalanceOptimizer" {
		t.Errorf("top advice = %s, want warp balance", adv.Entries[0].Optimizer)
	}
}

func TestBlockIncreaseApplicability(t *testing.T) {
	// 8 blocks on an 80-SM GPU: applicable.
	ctx := buildTestContext(t, memLoopSrc, "memloop",
		gpusim.LaunchConfig{Entry: "memloop", Grid: gpusim.Dim(8), Block: gpusim.Dim(256), RegsPerThread: 32},
		&gpusim.Spec{Trips: map[gpusim.Site]gpusim.TripFunc{
			{Func: "memloop", Label: "BR0"}: gpusim.UniformTrips(60),
		}})
	m := (BlockIncrease{}).Match(ctx)
	if !m.Applicable {
		t.Fatal("8 blocks < 80 SMs must match block increase")
	}
	sp := (Parallel{WNew: blockIncreaseWNew}).Estimate(ctx, m)
	if sp <= 1 {
		t.Errorf("block increase speedup = %v, want > 1", sp)
	}
	// 160 blocks: not applicable.
	ctx2 := memLoopCtx(t)
	if (BlockIncrease{}).Match(ctx2).Applicable {
		t.Error("160 blocks >= 80 SMs must not match block increase")
	}
}

func TestThreadIncreaseApplicability(t *testing.T) {
	// Tiny blocks (32 threads) hit the blocks-per-SM ceiling: few warps
	// per scheduler.
	ctx := buildTestContext(t, memLoopSrc, "memloop",
		gpusim.LaunchConfig{Entry: "memloop", Grid: gpusim.Dim(4000), Block: gpusim.Dim(32), RegsPerThread: 32},
		&gpusim.Spec{Trips: map[gpusim.Site]gpusim.TripFunc{
			{Func: "memloop", Label: "BR0"}: gpusim.UniformTrips(60),
		}})
	m := (ThreadIncrease{}).Match(ctx)
	if !m.Applicable {
		t.Fatalf("32-thread blocks must match thread increase (limiter=%s, w=%d)",
			ctx.Profile.OccupancyLimiter, ctx.Profile.WarpsPerScheduler)
	}
	sp := (Parallel{WNew: threadIncreaseWNew, F: threadIncreaseF}).Estimate(ctx, m)
	if sp <= 1 {
		t.Errorf("thread increase speedup = %v, want > 1", sp)
	}
	// Full-occupancy launches must not match.
	ctx2 := memLoopCtx(t)
	if (ThreadIncrease{}).Match(ctx2).Applicable {
		t.Errorf("full occupancy must not match thread increase (w=%d)",
			ctx2.Profile.WarpsPerScheduler)
	}
}

// customOptimizer exercises the extension point the paper mentions
// (texture fetch combination etc.).
type customOptimizer struct{ hits *int }

func (c customOptimizer) Name() string       { return "CustomTextureOptimizer" }
func (c customOptimizer) Category() string   { return CatStallElimination }
func (c customOptimizer) Suggestion() string { return "combine texture fetches" }
func (c customOptimizer) Match(ctx *Context) *Match {
	*c.hits++
	return &Match{Applicable: true, Matched: float64(ctx.T) / 10}
}

func TestCustomOptimizerExtension(t *testing.T) {
	ctx := memLoopCtx(t)
	hits := 0
	adv := Advise(ctx, RankedOptimizer{customOptimizer{&hits}, StallElimination{}})
	if hits != 1 {
		t.Fatalf("custom optimizer ran %d times", hits)
	}
	if len(adv.Entries) != 1 || adv.Entries[0].Optimizer != "CustomTextureOptimizer" {
		t.Fatalf("entries = %+v", adv.Entries)
	}
	want := float64(ctx.T) / (float64(ctx.T) - float64(ctx.T)/10)
	if math.Abs(adv.Entries[0].Speedup-want) > 1e-9 {
		t.Errorf("custom speedup = %v, want %v", adv.Entries[0].Speedup, want)
	}
}

func TestStrengthReductionMatchesConversions(t *testing.T) {
	// A loop dominated by F2F conversions feeding FFMA (the hotspot
	// pattern of the paper's Listing 1).
	src := `
.func convloop global
.line cv.cu 2
	MOV R0, 0x0 {S:2}
LOOP:
.line cv.cu 3
	F2F.F64.F32 R4, R5 {S:13}
	DMUL R6, R4, R8 {S:8}
	F2F.F32.F64 R7, R6 {S:13}
	FADD R9, R7, R9 {S:4}
	IADD R0, R0, 0x1 {S:4}
	ISETP P0, R0, 0x40 {S:4}
BR0:	@P0 BRA LOOP {S:5}
	EXIT
`
	ctx := buildTestContext(t, src, "convloop",
		gpusim.LaunchConfig{Entry: "convloop", Grid: gpusim.Dim(2560), Block: gpusim.Dim(256), RegsPerThread: 32},
		&gpusim.Spec{Trips: map[gpusim.Site]gpusim.TripFunc{
			{Func: "convloop", Label: "BR0"}: gpusim.UniformTrips(100),
		}})
	m := StrengthReduction{}.Match(ctx)
	if m.Matched <= 0 {
		t.Fatal("strength reduction matched nothing in a conversion-bound loop")
	}
	adv := Advise(ctx)
	if adv.Entries[0].Optimizer != "GPUStrengthReductionOptimizer" {
		t.Errorf("top advice = %s, want strength reduction", adv.Entries[0].Optimizer)
	}
}
