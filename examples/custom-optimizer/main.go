// Custom optimizer: the paper notes GPA "is organized in a modular
// fashion. Users can add custom optimizers to match other inefficiency
// patterns (e.g., texture fetch combination)."
//
// This example adds an atomic-contention optimizer: it matches stalls
// blamed on ATOM/RED instructions (which serialize under contention) and
// suggests privatizing the accumulator. The custom optimizer runs next
// to the built-in Table 2 set and is ranked with them.
//
// Run with: go run ./examples/custom-optimizer
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"gpa"
	"gpa/internal/advisor"
	"gpa/internal/sass"
)

// atomicContention matches memory-dependency stalls whose blamed source
// is an atomic operation.
type atomicContention struct{}

func (atomicContention) Name() string     { return "GPUAtomicContentionOptimizer" }
func (atomicContention) Category() string { return "stall elimination" }
func (atomicContention) Suggestion() string {
	return `Atomic operations serialize under contention.
1. Privatize the accumulator per block (shared memory) and reduce once at the end.
2. Use warp-aggregated atomics (__reduce_add_sync) before touching global memory.`
}

func (atomicContention) Match(ctx *advisor.Context) *advisor.Match {
	m := &advisor.Match{Applicable: true}
	for name, fc := range ctx.Funcs {
		for _, e := range fc.Blame.SurvivingEdges() {
			def := fc.FS.Fn.Instrs[e.Def]
			if def.Opcode != sass.OpATOM && def.Opcode != sass.OpRED {
				continue
			}
			m.Matched += e.Stalls
			m.MatchedLatency += e.LatencyStalls
			m.Hotspots = append(m.Hotspots, advisor.Hotspot{
				FuncName: name, Def: e.Def, Use: e.Use,
				Stalls: e.Stalls, Distance: e.PathLen, Detail: "atomic_contention",
			})
		}
	}
	return m
}

var _ advisor.Optimizer = atomicContention{}

// histogram: every iteration atomically bumps a bin and immediately
// reads the result back.
const histogramSrc = `
.module sm_70
.func histogram global
.line histogram.cu 12
	MOV R0, 0x0 {S:2}
	S2R R1, SR_TID.X {S:2, W:5}
	IMAD R2, R1, 0x4, RZ {S:4, Q:5}
	IADD R2, R2, c[0x0][0x160] {S:2}
LOOP:
.line histogram.cu 14
	ATOM.E.32 R8, [R2] {S:1, W:0}
.line histogram.cu 15
	IADD R9, R8, R9 {S:4, Q:0}
	IADD R0, R0, 0x1 {S:4}
	ISETP P0, R0, 0x40 {S:4}
BR0:	@P0 BRA LOOP {S:5}
	STG.E.32 [R2], R9 {S:1, R:1}
	EXIT {Q:1}
`

func main() {
	kernel, err := gpa.LoadKernelAsm(histogramSrc, gpa.Launch{
		Entry: "histogram", GridX: 640, BlockX: 256, RegsPerThread: 32,
	})
	if err != nil {
		log.Fatal(err)
	}
	wl, err := kernel.BindWorkload(&gpa.WorkloadSpec{
		Trips: map[gpa.Site]gpa.TripFunc{
			{Func: "histogram", Label: "BR0"}: gpa.UniformTrips(64),
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	// Register the custom optimizer alongside the default Table 2 set;
	// stall-elimination speedups use Equation 2 of the paper.
	report, err := kernel.Advise(context.Background(),
		&gpa.Options{Workload: wl, Seed: 5, SimSMs: 1},
		advisor.RankedOptimizer{Optimizer: atomicContention{}, Estimator: advisor.StallElimination{}},
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Advice with the custom atomic-contention optimizer registered:")
	fmt.Println()
	report.Render(os.Stdout)
}
