package kernels

import (
	"fmt"
	"strings"

	"gpa"
)

// Assembly-generation helpers shared by the benchmark kernels. Each
// builder produces a baseline/optimized source pair around one
// inefficiency pattern; the per-app files instantiate them with their
// own file names, line numbers, launch shapes, and workload knobs so
// every Table 3 row is a distinct kernel.

// asmBuilder accumulates assembly text.
type asmBuilder struct {
	sb   strings.Builder
	line int
	file string
}

func newAsm(file string) *asmBuilder {
	b := &asmBuilder{file: file}
	b.sb.WriteString(".module sm_70\n")
	return b
}

func (b *asmBuilder) fn(name, vis string) *asmBuilder {
	fmt.Fprintf(&b.sb, ".func %s %s\n", name, vis)
	return b
}

// at sets the current source line.
func (b *asmBuilder) at(line int) *asmBuilder {
	if line != b.line {
		fmt.Fprintf(&b.sb, ".line %s %d\n", b.file, line)
		b.line = line
	}
	return b
}

func (b *asmBuilder) ins(format string, args ...any) *asmBuilder {
	fmt.Fprintf(&b.sb, "\t"+format+"\n", args...)
	return b
}

func (b *asmBuilder) label(name string) *asmBuilder {
	fmt.Fprintf(&b.sb, "%s:\n", name)
	return b
}

func (b *asmBuilder) String() string { return b.sb.String() }

// ffmaChain emits n dependent-free FFMA instructions cycling registers
// r0..r0+k so they do not serialize.
func (b *asmBuilder) ffmaChain(n, base int) *asmBuilder {
	for i := 0; i < n; i++ {
		r := base + (i % 8)
		b.ins("FFMA R%d, R%d, R%d, R%d {S:2}", r, r, r+8, r)
	}
	return b
}

// loopHead emits the canonical counter/branch prologue registers. The
// loop counter lives in R0; the label BR0 marks the backward branch so
// workloads can attach trip counts.
func (b *asmBuilder) loopPrologue(line int) *asmBuilder {
	b.at(line)
	b.ins("MOV R0, 0x0 {S:2}")
	b.ins("S2R R1, SR_TID.X {S:2, W:5}")
	b.ins("IMAD R2, R1, 0x4, RZ {S:4, Q:5}")
	b.ins("IADD R2, R2, c[0x0][0x160] {S:2}")
	b.ins("MOV R3, 0x0 {S:2}")
	return b
}

// loopEpilogue emits counter increment, compare, and backward branch;
// brLabel names the branch site for workload binding.
func (b *asmBuilder) loopEpilogue(loopLabel, brLabel string, line int) *asmBuilder {
	b.at(line)
	b.ins("IADD R0, R0, 0x1 {S:4}")
	b.ins("ISETP P0, R0, 0x7fffff {S:4}")
	fmt.Fprintf(&b.sb, "%s:\t@P0 BRA %s {S:5}\n", brLabel, loopLabel)
	return b
}

// --- warp balance -----------------------------------------------------

type warpBalanceParams struct {
	file        string
	kernel      string
	loopLine    int
	barLine     int
	computeOps  int // FFMA count per iteration
	launch      gpa.Launch
	hiTrips     int
	loTrips     int
	hiWarpEvery int // every k-th warp is heavy
}

// warpBalanceAsm builds a compute loop with per-warp trip counts
// followed by a block-wide barrier and a post-barrier tail: imbalanced
// trips pile synchronization stalls on the barrier.
func warpBalanceAsm(p warpBalanceParams) string {
	b := newAsm(p.file)
	b.fn(p.kernel, "global")
	b.loopPrologue(p.loopLine - 2)
	b.label("LOOP").at(p.loopLine)
	b.ffmaChain(p.computeOps, 8)
	b.loopEpilogue("LOOP", "BR0", p.loopLine+2)
	b.at(p.barLine)
	b.ins("BAR.SYNC {S:2}")
	b.at(p.barLine + 1)
	b.ins("LDS.32 R20, [R1] {S:1, W:0}")
	b.ins("FFMA R21, R20, R21, R21 {S:4, Q:0}")
	b.ins("STS.32 [R1], R21 {S:1, R:1}")
	b.ins("EXIT {Q:1}")
	return b.String()
}

// warpBalancePair returns baseline (imbalanced) and optimized
// (balanced, same total work) variants.
func warpBalancePair(p warpBalanceParams) (Variant, Variant) {
	asm := warpBalanceAsm(p)
	site := gpa.Site{Func: p.kernel, Label: "BR0"}
	every := p.hiWarpEvery
	if every <= 0 {
		every = 4
	}
	hi, lo := p.hiTrips, p.loTrips
	base := Variant{
		Asm:    asm,
		Launch: p.launch,
		Spec: &gpa.WorkloadSpec{Trips: map[gpa.Site]gpa.TripFunc{
			site: func(w gpa.WarpCtx) int {
				if w.WarpInBlock%every == 0 {
					return hi
				}
				return lo
			},
		}},
	}
	// Balanced: every warp runs the mean trip count.
	mean := (hi + lo*(every-1)) / every
	opt := Variant{
		Asm:    asm,
		Launch: p.launch,
		Spec:   &gpa.WorkloadSpec{Trips: map[gpa.Site]gpa.TripFunc{site: gpa.UniformTrips(mean)}},
	}
	return base, opt
}

// --- strength reduction -----------------------------------------------

type strengthParams struct {
	file     string
	kernel   string
	loopLine int
	trips    int
	launch   gpa.Launch
	// useIDIV switches the long-latency pattern from F2F/DMUL
	// conversion chains (hotspot style) to integer division (ExaTENSOR
	// style).
	useIDIV bool
}

// strengthPair: baseline carries long-latency arithmetic in the loop
// body; the optimized variant replaces it with cheap FP32 work.
func strengthPair(p strengthParams) (Variant, Variant) {
	mk := func(optimized bool) string {
		b := newAsm(p.file)
		b.fn(p.kernel, "global")
		b.loopPrologue(p.loopLine - 3)
		b.label("LOOP").at(p.loopLine)
		b.ins("LDG.E.32 R8, [R2] {S:1, W:0}")
		b.at(p.loopLine + 1)
		switch {
		case optimized:
			// Constant typed as 32-bit float: single FMUL.
			b.ins("FMUL R10, R8, 2f {S:4, Q:0}")
			b.ins("FADD R12, R10, R12 {S:4}")
		case p.useIDIV:
			b.ins("IDIV R10, R8, R9 {S:1, W:1, Q:0}")
			b.ins("IADD R12, R10, R12 {S:4, Q:1}")
		default:
			// 2.0 promotes the operand to double and back (Listing 1).
			b.ins("F2F.F64.F32 R10, R8 {S:13, Q:0}")
			b.ins("DMUL R10, R10, R4 {S:10}")
			b.ins("F2F.F32.F64 R11, R10 {S:13}")
			b.ins("FADD R12, R11, R12 {S:4}")
		}
		b.ins("IADD R2, R2, 0x4 {S:4}")
		b.loopEpilogue("LOOP", "BR0", p.loopLine+3)
		b.ins("STG.E.32 [R2], R12 {S:1, R:1}")
		b.ins("EXIT {Q:1}")
		return b.String()
	}
	spec := func() *gpa.WorkloadSpec {
		return &gpa.WorkloadSpec{Trips: map[gpa.Site]gpa.TripFunc{
			{Func: p.kernel, Label: "BR0"}: gpa.UniformTrips(p.trips),
		}}
	}
	return Variant{Asm: mk(false), Launch: p.launch, Spec: spec()},
		Variant{Asm: mk(true), Launch: p.launch, Spec: spec()}
}

// --- loop unrolling ----------------------------------------------------

type unrollParams struct {
	file     string
	kernel   string
	loopLine int
	launch   gpa.Launch
	// trips per warp in the baseline (the optimized variant divides by
	// the unroll factor).
	trips gpa.TripFunc
	// unroll factor of the optimized variant.
	factor int
	// remainder adds per-iteration bookkeeping overhead to the
	// optimized variant (data-dependent bounds: the bfs case).
	remainder bool
	// compute is extra per-iteration FFMA work after the load use.
	compute int
	// transactions > 1 marks the loads uncoalesced (both variants).
	transactions int
	// chained makes the optimized variant's unrolled loads depend on
	// each other (pointer chasing), so unrolling adds no memory-level
	// parallelism — the bfs false-positive shape.
	chained bool
	// dualPath loads through one of two predicated paths (visited vs
	// frontier node): the consumer sees two same-class dependency
	// sources, which keeps bfs's single-dependency coverage low even
	// after pruning (Figure 7).
	dualPath bool
}

// unrollPair: baseline issues one load per iteration and consumes it
// immediately; the optimized variant issues `factor` independent loads
// before any use, raising memory-level parallelism.
func unrollPair(p unrollParams) (Variant, Variant) {
	baseAsm := func() string {
		b := newAsm(p.file)
		b.fn(p.kernel, "global")
		b.loopPrologue(p.loopLine - 3)
		b.label("LOOP").at(p.loopLine)
		if p.dualPath {
			b.ins("ISETP P1, R0, 0x10 {S:4}")
			b.label("LD0")
			b.ins("@P1 LDG.E.32 R8, [R2] {S:1, W:0}")
			b.ins("@!P1 LDG.E.32 R8, [R4] {S:1, W:0}")
		} else {
			b.label("LD0")
			b.ins("LDG.E.32 R8, [R2] {S:1, W:0}")
		}
		b.at(p.loopLine + 1)
		b.ins("FFMA R12, R8, R13, R12 {S:4, Q:0}")
		b.ffmaChain(p.compute, 16)
		b.ins("IADD R2, R2, 0x4 {S:4}")
		b.loopEpilogue("LOOP", "BR0", p.loopLine+4)
		b.ins("STG.E.32 [R2], R12 {S:1, R:1}")
		b.ins("EXIT {Q:1}")
		return b.String()
	}
	optAsm := func() string {
		b := newAsm(p.file)
		b.fn(p.kernel, "global")
		b.loopPrologue(p.loopLine - 3)
		b.label("LOOP").at(p.loopLine)
		for i := 0; i < p.factor; i++ {
			b.label(fmt.Sprintf("LD%d", i))
			if p.chained && i > 0 {
				// The next node's address comes from the previous load.
				b.ins("LDG.E.32 R%d, [R%d] {S:1, W:%d, Q:%d}", 8+i, 8+i-1, i%4, (i-1)%4)
			} else {
				b.ins("LDG.E.32 R%d, [R2+0x%x] {S:1, W:%d}", 8+i, i*4, i%4)
			}
		}
		b.at(p.loopLine + 1)
		for i := 0; i < p.factor; i++ {
			b.ins("FFMA R12, R%d, R13, R12 {S:4, Q:%d}", 8+i, i%4)
		}
		b.ffmaChain(p.compute*p.factor, 16)
		if p.remainder {
			// Data-dependent bounds force a remainder guard per
			// unrolled iteration.
			b.ins("ISETP P1, R0, R30 {S:4}")
			b.ins("ISETP P2, R0, R31 {S:4}")
			b.ins("SEL R14, R12, R14, P1 {S:4}")
		}
		b.ins("IADD R2, R2, 0x%x {S:4}", p.factor*4)
		b.loopEpilogue("LOOP", "BR0", p.loopLine+4)
		b.ins("STG.E.32 [R2], R12 {S:1, R:1}")
		b.ins("EXIT {Q:1}")
		return b.String()
	}
	factor := p.factor
	trips := p.trips
	baseSpec := &gpa.WorkloadSpec{Trips: map[gpa.Site]gpa.TripFunc{
		{Func: p.kernel, Label: "BR0"}: trips,
	}}
	optSpec := &gpa.WorkloadSpec{Trips: map[gpa.Site]gpa.TripFunc{
		{Func: p.kernel, Label: "BR0"}: func(w gpa.WarpCtx) int {
			n := trips(w) / factor
			if n < 1 {
				n = 1
			}
			return n
		},
	}}
	if p.transactions > 1 {
		baseSpec.Transactions = map[gpa.Site]int{
			{Func: p.kernel, Label: "LD0"}: p.transactions,
		}
		optSpec.Transactions = map[gpa.Site]int{}
		for i := 0; i < p.factor; i++ {
			optSpec.Transactions[gpa.Site{Func: p.kernel, Label: fmt.Sprintf("LD%d", i)}] = p.transactions
		}
	}
	base := Variant{Asm: baseAsm(), Launch: p.launch, Spec: baseSpec}
	opt := Variant{Asm: optAsm(), Launch: p.launch, Spec: optSpec}
	return base, opt
}

// --- code reordering ---------------------------------------------------

type reorderParams struct {
	file     string
	kernel   string
	loopLine int
	trips    int
	launch   gpa.Launch
	// independent is the FFMA count available to move between the load
	// and its use.
	independent int
	// barrier places a BAR.SYNC between load and use that reordering
	// cannot cross (the pathfinder false-positive pattern): the
	// optimized variant only hoists the load past part of the
	// independent work.
	barrier bool
}

// reorderPair: baseline consumes a load immediately, with independent
// work after the use; the optimized variant interleaves the independent
// work between load and use.
func reorderPair(p reorderParams) (Variant, Variant) {
	mk := func(optimized bool) string {
		b := newAsm(p.file)
		b.fn(p.kernel, "global")
		b.loopPrologue(p.loopLine - 3)
		b.label("LOOP").at(p.loopLine)
		b.ins("IADD R2, R2, 0x4 {S:4}")
		if p.barrier {
			// Pathfinder shape: data dependencies pin most code behind
			// the barrier; reordering can only hoist the load itself.
			if optimized {
				b.ins("LDG.E.32 R8, [R2] {S:1, W:0}")
				b.at(p.loopLine + 1)
				b.ins("BAR.SYNC {S:2}")
			} else {
				b.at(p.loopLine + 1)
				b.ins("BAR.SYNC {S:2}")
				b.ins("LDG.E.32 R8, [R2] {S:1, W:0}")
			}
			b.ffmaChain(p.independent, 16)
			b.at(p.loopLine + 2)
			b.ins("FFMA R12, R8, R13, R12 {S:4, Q:0}")
		} else if optimized {
			b.ins("LDG.E.32 R8, [R2] {S:1, W:0}")
			b.ffmaChain(p.independent, 16)
			b.at(p.loopLine + 2)
			b.ins("FFMA R12, R8, R13, R12 {S:4, Q:0}")
		} else {
			b.ins("LDG.E.32 R8, [R2] {S:1, W:0}")
			b.at(p.loopLine + 2)
			b.ins("FFMA R12, R8, R13, R12 {S:4, Q:0}")
			b.ffmaChain(p.independent, 16)
		}
		b.loopEpilogue("LOOP", "BR0", p.loopLine+4)
		b.ins("STG.E.32 [R2], R12 {S:1, R:1}")
		b.ins("EXIT {Q:1}")
		return b.String()
	}
	spec := func() *gpa.WorkloadSpec {
		return &gpa.WorkloadSpec{Trips: map[gpa.Site]gpa.TripFunc{
			{Func: p.kernel, Label: "BR0"}: gpa.UniformTrips(p.trips),
		}}
	}
	return Variant{Asm: mk(false), Launch: p.launch, Spec: spec()},
		Variant{Asm: mk(true), Launch: p.launch, Spec: spec()}
}

// --- fast math ----------------------------------------------------------

type fastMathParams struct {
	file     string
	kernel   string
	mathFn   string
	loopLine int
	trips    int
	launch   gpa.Launch
	// chain is the DFMA chain length of the precise math routine.
	chain int
	// extra is non-math FFMA work per loop iteration (dilutes the math
	// share).
	extra int
}

// fastMathPair: baseline calls a precise double-precision math routine
// per iteration; the optimized variant uses the short MUFU-based fast
// path (--use_fast_math).
func fastMathPair(p fastMathParams) (Variant, Variant) {
	baseAsm := func() string {
		b := newAsm(p.file)
		b.fn(p.mathFn, "device")
		b.at(9000)
		b.ins("MUFU.RCP R24, R24 {S:1, W:4}")
		b.ins("DMUL R26, R24, R24 {S:10, Q:4}")
		for i := 0; i < p.chain; i++ {
			b.ins("DFMA R26, R26, R24, R26 {S:10}")
		}
		b.ins("F2F.F32.F64 R22, R26 {S:13}")
		b.ins("RET {S:2}")
		b.fn(p.kernel, "global")
		b.loopPrologue(p.loopLine - 3)
		b.ins("LDG.E.32 R24, [R2] {S:1, W:0}")
		b.label("LOOP").at(p.loopLine)
		b.ins("CAL %s {S:2}", p.mathFn)
		b.ins("FADD R28, R22, R28 {S:4}")
		b.ffmaChain(p.extra, 16)
		b.ins("IADD R2, R2, 0x4 {S:4}")
		b.loopEpilogue("LOOP", "BR0", p.loopLine+3)
		b.ins("STG.E.32 [R2], R28 {S:1, R:1, Q:0}")
		b.ins("EXIT {Q:1}")
		return b.String()
	}
	optAsm := func() string {
		b := newAsm(p.file)
		b.fn(p.kernel, "global")
		b.loopPrologue(p.loopLine - 3)
		b.ins("LDG.E.32 R24, [R2] {S:1, W:0}")
		b.label("LOOP").at(p.loopLine)
		b.ins("MUFU.RCP R22, R24 {S:1, W:4}")
		b.ins("FFMA R22, R22, R24, R22 {S:4, Q:4}")
		b.ins("FADD R28, R22, R28 {S:4}")
		b.ffmaChain(p.extra, 16)
		b.ins("IADD R2, R2, 0x4 {S:4}")
		b.loopEpilogue("LOOP", "BR0", p.loopLine+3)
		b.ins("STG.E.32 [R2], R28 {S:1, R:1, Q:0}")
		b.ins("EXIT {Q:1}")
		return b.String()
	}
	spec := func() *gpa.WorkloadSpec {
		return &gpa.WorkloadSpec{Trips: map[gpa.Site]gpa.TripFunc{
			{Func: p.kernel, Label: "BR0"}: gpa.UniformTrips(p.trips),
		}}
	}
	return Variant{Asm: baseAsm(), Launch: p.launch, Spec: spec()},
		Variant{Asm: optAsm(), Launch: p.launch, Spec: spec()}
}

// --- parallel (block / thread increase) ---------------------------------

type memComputeParams struct {
	file     string
	kernel   string
	loopLine int
	// loads and computes per iteration set the memory/compute balance
	// (computes raise RI, loads lower it).
	loads    int
	computes int
}

// memComputeAsm builds the generic loop used by the parallel-optimizer
// benchmarks.
func memComputeAsm(p memComputeParams) string {
	b := newAsm(p.file)
	b.fn(p.kernel, "global")
	b.loopPrologue(p.loopLine - 3)
	b.label("LOOP").at(p.loopLine)
	for i := 0; i < p.loads; i++ {
		b.ins("LDG.E.32 R%d, [R2+0x%x] {S:1, W:%d}", 8+i, i*4, i%4)
	}
	b.at(p.loopLine + 1)
	for i := 0; i < p.loads; i++ {
		b.ins("FFMA R12, R%d, R13, R12 {S:4, Q:%d}", 8+i, i%4)
	}
	b.ffmaChain(p.computes, 16)
	b.ins("IADD R2, R2, 0x%x {S:4}", p.loads*4)
	b.loopEpilogue("LOOP", "BR0", p.loopLine+3)
	b.ins("STG.E.32 [R2], R12 {S:1, R:1}")
	b.ins("EXIT {Q:1}")
	return b.String()
}
