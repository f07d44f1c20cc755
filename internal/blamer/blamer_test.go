package blamer

import (
	"math"
	"testing"

	"gpa/internal/arch"
	"gpa/internal/gpusim"
	"gpa/internal/sampling"
	"gpa/internal/sass"
	"gpa/internal/structure"
)

// analyzeSrc assembles src, fabricates stats via the stall/issued maps
// (instruction index -> count), and runs the blamer.
func analyzeSrc(t *testing.T, src, fn string, stalls map[int]map[gpusim.StallReason]int64,
	issued map[int]int64, opts Options) *Result {
	t.Helper()
	mod, err := sass.Assemble(src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	st, err := structure.Analyze(mod)
	if err != nil {
		t.Fatalf("structure: %v", err)
	}
	fs := st.Func(fn)
	n := len(fs.Fn.Instrs)
	stats := make([]sampling.PCStats, n)
	iss := make([]int64, n)
	for idx, m := range stalls {
		for r, c := range m {
			stats[idx].Stalls[r] = c
			stats[idx].LatencyStalls[r] = c // treat all as latency samples
			stats[idx].Total += c
			stats[idx].Latency += c
		}
	}
	for idx, c := range issued {
		iss[idx] = c
		stats[idx].Total += c
		stats[idx].Active += c
	}
	res, err := Analyze(fs, stats, iss, arch.VoltaV100(), opts)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return res
}

// blamedByDef sums the surviving edges' apportioned stalls per def
// instruction and detail class.
func blamedByDef(res *Result) map[int]map[Detail]float64 {
	by := map[int]map[Detail]float64{}
	for _, e := range res.SurvivingEdges() {
		if by[e.Def] == nil {
			by[e.Def] = map[Detail]float64{}
		}
		by[e.Def][e.Detail] += e.Stalls
	}
	return by
}

// figure4Src encodes the Figure 4 example: three defs of R0 on separate
// paths (predicated LDG, complementary-predicated LDC, unconditional
// IMAD), all reaching an IADD that observes memory dependency stalls.
// The LDC path is twice as long as the LDG path.
const figure4Src = `
.func fig4 global
.line f4.cu 1
	ISETP P0, R9, 0x0 {S:4}
	@P0 BRA LGPATH {S:5}
	ISETP P1, R10, 0x0 {S:4}
	@P1 BRA IMADPATH {S:5}
	@!P0 LDC.32 R0, c[0x0][0x40] {S:1, W:1}
	NOP
	NOP
	NOP
	NOP
	NOP
	NOP
	NOP
	NOP
	BRA JOIN {S:5}
LGPATH:
	@P0 LDG.E.32 R0, [R2] {S:1, W:0}
	NOP
	NOP
	NOP
	BRA JOIN {S:5}
IMADPATH:
	IMAD R0, R4, R5, RZ {S:4}
JOIN:
	IADD R8, R0, R7 {S:4, Q:0|1}
	EXIT
`

// Instruction indices in figure4Src: the LDC path spans 10 issue slots
// to the IADD, the LDG path 5 (the Figure 4d numbers).
const (
	f4LDC  = 4
	f4LDG  = 14
	f4IMAD = 19
	f4IADD = 20
)

func TestFigure4SlicingFindsAllThreeDefs(t *testing.T) {
	res := analyzeSrc(t, figure4Src, "fig4",
		map[int]map[gpusim.StallReason]int64{
			f4IADD: {gpusim.ReasonMemoryDependency: 4},
		},
		map[int]int64{f4LDC: 2, f4LDG: 1},
		Options{DisableOpcodePrune: true, DisableDominatorPrune: true, DisableLatencyPrune: true})
	defs := map[int]bool{}
	for _, e := range res.Edges {
		defs[e.Def] = true
	}
	for _, want := range []int{f4LDC, f4LDG, f4IMAD} {
		if !defs[want] {
			t.Errorf("slicing missed def at %d; edges: %+v", want, res.Edges)
		}
	}
}

func TestFigure4OpcodePruneRemovesIMAD(t *testing.T) {
	res := analyzeSrc(t, figure4Src, "fig4",
		map[int]map[gpusim.StallReason]int64{
			f4IADD: {gpusim.ReasonMemoryDependency: 4},
		},
		map[int]int64{f4LDC: 2, f4LDG: 1},
		Options{})
	var imadEdge *Edge
	surviving := map[int]bool{}
	for _, e := range res.Edges {
		if e.Def == f4IMAD {
			imadEdge = e
		}
		if e.PrunedBy() == "" {
			surviving[e.Def] = true
		}
	}
	if imadEdge == nil {
		t.Fatal("no IMAD edge constructed")
	}
	if imadEdge.PrunedBy() != PruneOpcode {
		t.Errorf("IMAD edge pruned by %q, want opcode rule", imadEdge.PrunedBy())
	}
	if !surviving[f4LDC] || !surviving[f4LDG] {
		t.Errorf("memory defs should survive: %v", surviving)
	}
}

func TestFigure4Apportioning(t *testing.T) {
	// LDG: issue 1, path 5; LDC: issue 2, path 10 -> equal 2/2 split of
	// the 4 observed stalls (Figure 4d).
	res := analyzeSrc(t, figure4Src, "fig4",
		map[int]map[gpusim.StallReason]int64{
			f4IADD: {gpusim.ReasonMemoryDependency: 4},
		},
		map[int]int64{f4LDC: 2, f4LDG: 1},
		Options{})
	var ldg, ldc *Edge
	for _, e := range res.SurvivingEdges() {
		switch e.Def {
		case f4LDG:
			ldg = e
		case f4LDC:
			ldc = e
		}
	}
	if ldg == nil || ldc == nil {
		t.Fatalf("missing surviving edges: %+v", res.SurvivingEdges())
	}
	if ldc.PathLen != 2*ldg.PathLen {
		t.Errorf("path lengths %d vs %d, want 2x ratio", ldc.PathLen, ldg.PathLen)
	}
	if math.Abs(ldg.Stalls-2) > 1e-9 || math.Abs(ldc.Stalls-2) > 1e-9 {
		t.Errorf("apportioned stalls = %v / %v, want 2 / 2", ldg.Stalls, ldc.Stalls)
	}
	// Detail classes follow Figure 5.
	if ldg.Detail != DetailGlobalMem {
		t.Errorf("LDG detail = %v, want global", ldg.Detail)
	}
	if ldc.Detail != DetailConstMem {
		t.Errorf("LDC detail = %v, want constant", ldc.Detail)
	}
}

func TestFigure3BarrierDependency(t *testing.T) {
	// LDG writes B0; the BRA waits on B0 without touching R0. Memory
	// stalls at the BRA must blame the LDG via the virtual barrier
	// register.
	src := `
.func fig3 global
	LDG.E.32 R0, [R2] {S:1, W:0}
	IADD R5, R5, 0x1 {S:4}
BR:	BRA DONE {S:5, Q:0}
DONE:
	EXIT
`
	res := analyzeSrc(t, src, "fig3",
		map[int]map[gpusim.StallReason]int64{
			2: {gpusim.ReasonMemoryDependency: 7},
		},
		map[int]int64{0: 1},
		Options{})
	edges := res.SurvivingEdges()
	if len(edges) != 1 {
		t.Fatalf("got %d surviving edges, want 1: %+v", len(edges), edges)
	}
	e := edges[0]
	if e.Def != 0 || e.Reg.Class != sass.RegBarrier {
		t.Errorf("edge = %+v, want def 0 via barrier register", e)
	}
	if math.Abs(e.Stalls-7) > 1e-9 {
		t.Errorf("stalls = %v, want 7", e.Stalls)
	}
	if by := blamedByDef(res); by[0][DetailGlobalMem] != 7 {
		t.Errorf("blamed by def = %+v", by)
	}
}

func TestDominatorPrune(t *testing.T) {
	// R1 defined at 0, used unconditionally at 1 (k) and at 2 (j): the
	// edge 0->2 prunes because stalls would surface at 1.
	src := `
.func dom global
	LDG.E.32 R1, [R2] {S:1, W:0}
	IADD R3, R1, 0x1 {S:4, Q:0}
	IADD R4, R1, 0x2 {S:4}
	EXIT
`
	res := analyzeSrc(t, src, "dom",
		map[int]map[gpusim.StallReason]int64{
			2: {gpusim.ReasonMemoryDependency: 5},
			1: {gpusim.ReasonMemoryDependency: 9},
		},
		map[int]int64{0: 1},
		Options{})
	for _, e := range res.Edges {
		if e.Use == 2 && e.Def == 0 && e.Reg.Class == sass.RegGPR {
			if e.PrunedBy() != PruneDominator {
				t.Errorf("edge 0->2 pruned by %q, want dominator", e.PrunedBy())
			}
		}
		if e.Use == 1 && e.Def == 0 && e.PrunedBy() != "" {
			t.Errorf("edge 0->1 should survive, pruned by %q", e.PrunedBy())
		}
	}
	// With the rule disabled the edge survives.
	res2 := analyzeSrc(t, src, "dom",
		map[int]map[gpusim.StallReason]int64{2: {gpusim.ReasonMemoryDependency: 5}},
		map[int]int64{0: 1},
		Options{DisableDominatorPrune: true})
	found := false
	for _, e := range res2.SurvivingEdges() {
		if e.Use == 2 && e.Def == 0 && e.Reg.Class == sass.RegGPR {
			found = true
		}
	}
	if !found {
		t.Error("disabling the dominator rule should keep the 0->2 edge")
	}
}

func TestLatencyPrune(t *testing.T) {
	// A 4-cycle IADD def more than 4 issue slots before its use cannot
	// cause the stalls.
	src := `
.func lat global
	IADD R1, R9, 0x1 {S:4}
	NOP
	NOP
	NOP
	NOP
	NOP
	IADD R4, R1, 0x2 {S:4}
	EXIT
`
	res := analyzeSrc(t, src, "lat",
		map[int]map[gpusim.StallReason]int64{
			6: {gpusim.ReasonExecutionDependency: 3},
		},
		map[int]int64{0: 1},
		Options{})
	if len(res.Edges) == 0 {
		t.Fatal("no edges constructed")
	}
	for _, e := range res.Edges {
		if e.Def == 0 && e.Use == 6 {
			if e.PrunedBy() != PruneLatency {
				t.Errorf("distant fixed-latency edge pruned by %q, want latency", e.PrunedBy())
			}
		}
	}
	// An LDG def at the same distance survives: its bound is the TLB
	// miss latency.
	src2 := `
.func lat2 global
	LDG.E.32 R1, [R2] {S:1, W:0}
	NOP
	NOP
	NOP
	NOP
	NOP
	IADD R4, R1, 0x2 {S:4, Q:0}
	EXIT
`
	res2 := analyzeSrc(t, src2, "lat2",
		map[int]map[gpusim.StallReason]int64{
			6: {gpusim.ReasonMemoryDependency: 3},
		},
		map[int]int64{0: 1},
		Options{})
	kept := false
	for _, e := range res2.SurvivingEdges() {
		if e.Def == 0 && e.Use == 6 {
			kept = true
		}
	}
	if !kept {
		t.Error("global-memory edge within the TLB bound should survive")
	}
}

func TestSyncBlame(t *testing.T) {
	src := `
.func sync global
	FFMA R1, R1, R2, R3 {S:4}
	BAR.SYNC {S:2}
	IADD R4, R4, 0x1 {S:4}
	EXIT
`
	res := analyzeSrc(t, src, "sync",
		map[int]map[gpusim.StallReason]int64{
			2: {gpusim.ReasonSync: 11},
		},
		map[int]int64{1: 1},
		Options{})
	edges := res.SurvivingEdges()
	if len(edges) != 1 || edges[0].Def != 1 || edges[0].Detail != DetailSync {
		t.Fatalf("sync stalls should blame the BAR: %+v", edges)
	}
	if by := blamedByDef(res); by[1][DetailSync] != 11 {
		t.Errorf("blamed by def = %+v", by)
	}
}

func TestWARDependency(t *testing.T) {
	// STG reads R6 under read barrier B4; the MOV rewriting R6 waits on
	// B4: execution dependency stalls classify as WAR and blame the STG.
	src := `
.func war global
	STG.E.32 [R2], R6 {S:1, R:4}
	MOV R6, 0x7 {S:2, Q:4}
	EXIT
`
	res := analyzeSrc(t, src, "war",
		map[int]map[gpusim.StallReason]int64{
			1: {gpusim.ReasonExecutionDependency: 6},
		},
		map[int]int64{0: 1},
		Options{})
	edges := res.SurvivingEdges()
	if len(edges) != 1 {
		t.Fatalf("edges = %+v", edges)
	}
	if edges[0].Def != 0 || edges[0].Detail != DetailWAR {
		t.Errorf("WAR edge = %+v", edges[0])
	}
}

func TestSharedAndLocalDetails(t *testing.T) {
	src := `
.func details global
	LDS.32 R1, [R8] {S:1, W:0}
	LDL.32 R2, [R9] {S:1, W:1}
	MUFU.RCP R3, R3 {S:1, W:2}
	IADD R4, R1, R2 {S:4, Q:0|1}
	FFMA R5, R3, R5, R5 {S:4, Q:2}
	EXIT
`
	res := analyzeSrc(t, src, "details",
		map[int]map[gpusim.StallReason]int64{
			3: {gpusim.ReasonExecutionDependency: 4, gpusim.ReasonMemoryDependency: 4},
			4: {gpusim.ReasonExecutionDependency: 2},
		},
		map[int]int64{0: 1, 1: 1, 2: 1},
		Options{})
	by := blamedByDef(res)
	if by[0][DetailShared] == 0 {
		t.Errorf("LDS should collect shared-memory execution dependency: %+v", by)
	}
	if by[1][DetailLocalMem] == 0 {
		t.Errorf("LDL should collect local-memory dependency: %+v", by)
	}
	if by[2][DetailArith] == 0 {
		t.Errorf("MUFU should collect arithmetic dependency: %+v", by)
	}
}

func TestSelfStallsPassThrough(t *testing.T) {
	src := `
.func selfy global
	LDG.E.32 R1, [R2] {S:1, W:0}
	IADD R3, R1, 0x1 {S:4, Q:0}
	EXIT
`
	res := analyzeSrc(t, src, "selfy",
		map[int]map[gpusim.StallReason]int64{
			0: {gpusim.ReasonMemoryThrottle: 13, gpusim.ReasonInstructionFetch: 2},
		},
		map[int]int64{0: 1},
		Options{})
	if res.Self[0][gpusim.ReasonMemoryThrottle] != 13 {
		t.Errorf("Self = %+v", res.Self)
	}
	if res.Self[0][gpusim.ReasonInstructionFetch] != 2 {
		t.Errorf("Self = %+v", res.Self)
	}
}

func TestSingleDependencyCoverageImprovesWithPruning(t *testing.T) {
	res := analyzeSrc(t, figure4Src, "fig4",
		map[int]map[gpusim.StallReason]int64{
			f4IADD: {gpusim.ReasonMemoryDependency: 4},
		},
		map[int]int64{f4LDC: 2, f4LDG: 1},
		Options{})
	before := res.SingleDependencyCoverage(false)
	after := res.SingleDependencyCoverage(true)
	if after < before {
		t.Errorf("coverage after pruning (%v) below before (%v)", after, before)
	}
	// The IADD keeps two global... one global + one constant edge:
	// distinct details, so it is single-dependency after pruning.
	if after != 1 {
		t.Errorf("after-pruning coverage = %v, want 1 (distinct detail classes)", after)
	}
}

func TestPredicateCoverageStopsSlicing(t *testing.T) {
	// An unconditional def between the use and an older def kills the
	// older candidate.
	src := `
.func stopslice global
	LDG.E.32 R1, [R2] {S:1, W:0}
	MOV R1, 0x0 {S:2}
	IADD R3, R1, 0x1 {S:4}
	EXIT
`
	res := analyzeSrc(t, src, "stopslice",
		map[int]map[gpusim.StallReason]int64{
			2: {gpusim.ReasonExecutionDependency: 3},
		},
		map[int]int64{0: 1, 1: 1},
		Options{})
	for _, e := range res.Edges {
		if e.Def == 0 && e.Reg == sass.R(1) {
			t.Errorf("slicing walked past an unconditional def: %+v", e)
		}
	}
}

func TestAnalyzeValidatesLengths(t *testing.T) {
	mod := sass.MustAssemble(".func f global\n\tEXIT\n")
	st, err := structure.Analyze(mod)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Analyze(st.Func("f"), make([]sampling.PCStats, 5), make([]int64, 1), arch.VoltaV100(), Options{})
	if err == nil {
		t.Error("mismatched stats length must error")
	}
}

func TestTopDefsOrdering(t *testing.T) {
	res := analyzeSrc(t, figure4Src, "fig4",
		map[int]map[gpusim.StallReason]int64{
			f4IADD: {gpusim.ReasonMemoryDependency: 9},
		},
		map[int]int64{f4LDC: 10, f4LDG: 1},
		Options{})
	// LDC carries 10x the issue weight on a 2x path: it must be blamed
	// for more of the stalls than the LDG.
	by := blamedByDef(res)
	ldc, ldg := by[f4LDC][DetailConstMem], by[f4LDG][DetailGlobalMem]
	if ldg == 0 || ldc <= ldg {
		t.Errorf("LDC blamed %v, LDG %v: want LDC ahead", ldc, ldg)
	}
}
