// Package blamer implements GPA's instruction blamer (Section 4 of the
// paper): memory-dependency, execution-dependency, and synchronization
// stalls are observed at the instruction that suffers them, but caused
// by a source instruction. The blamer
//
//  1. backward-slices every stalled instruction's def-use chains,
//     treating the six scoreboard barrier indices as virtual barrier
//     registers B0-B5 and extending the search past predicated defs
//     until the predicates on the path cover the use,
//  2. builds an instruction dependency graph annotated with stalls,
//  3. prunes cold edges with three heuristics (opcode-, dominator-, and
//     latency-based), and
//  4. apportions the observed stalls over the surviving incoming edges
//     by issue counts and path lengths (Equation 1), finally
//     reclassifying dependencies into the detailed taxonomy of Figure 5
//     (local/constant/global memory; shared/WAR/arithmetic execution).
//
// In the Figure 2 pipeline the blamer is the middle of the offline
// analyzer: input is one function's structure (structure.FuncStructure),
// its per-PC sample statistics and issue counts from the profiler, and
// the arch.GPU model whose latency bounds drive the latency-based
// pruning rule (Section 4.3); output is a Result — the surviving blame
// edges with apportioned stall mass — that the advisor's optimizers
// match against.
package blamer

import (
	"fmt"

	"gpa/internal/arch"
	"gpa/internal/gpusim"
	"gpa/internal/sampling"
	"gpa/internal/sass"
	"gpa/internal/structure"
)

// Detail is the fine-grained dependency class of Figure 5.
type Detail uint8

// Detailed stall classes.
const (
	DetailNone Detail = iota
	// Memory dependency splits by source opcode.
	DetailGlobalMem
	DetailLocalMem
	DetailConstMem
	// Execution dependency splits by source opcode.
	DetailShared
	DetailWAR
	DetailArith
	// Synchronization.
	DetailSync
	NumDetails
)

var detailNames = [NumDetails]string{
	DetailNone:      "none",
	DetailGlobalMem: "global_memory_dep",
	DetailLocalMem:  "local_memory_dep",
	DetailConstMem:  "constant_memory_dep",
	DetailShared:    "shared_memory_dep",
	DetailWAR:       "war_dep",
	DetailArith:     "arithmetic_dep",
	DetailSync:      "sync_dep",
}

// String names the detail class.
func (d Detail) String() string {
	if d < NumDetails {
		return detailNames[d]
	}
	return "unknown"
}

// classify maps a dependency edge to its Figure 5 detail class given the
// def instruction and the coarse stall reason observed at the use.
func classify(def *sass.Instruction, reason gpusim.StallReason, war bool) Detail {
	switch reason {
	case gpusim.ReasonSync:
		return DetailSync
	case gpusim.ReasonMemoryDependency:
		switch def.Opcode {
		case sass.OpLDC:
			return DetailConstMem
		case sass.OpLDL, sass.OpSTL:
			return DetailLocalMem
		default:
			return DetailGlobalMem
		}
	case gpusim.ReasonExecutionDependency:
		if war {
			return DetailWAR
		}
		switch def.Opcode {
		case sass.OpLDS, sass.OpSHFL:
			return DetailShared
		case sass.OpSTS, sass.OpSTG, sass.OpSTL, sass.OpST, sass.OpRED:
			return DetailWAR
		default:
			return DetailArith
		}
	}
	return DetailNone
}

// Edge is one def-use dependency carrying apportioned stalls.
type Edge struct {
	Def, Use int
	// Reg is the register (possibly a virtual barrier register) that
	// mediates the dependency.
	Reg sass.Reg
	// Reason is the coarse stall class observed at Use.
	Reason gpusim.StallReason
	// Detail is the Figure 5 reclassification.
	Detail Detail
	// PathLen is the longest-path instruction distance Def -> Use.
	PathLen int
	// Issued is the def's dynamic issue count (Rissue numerator).
	Issued int64
	// Stalls is the apportioned share of Use's stall samples.
	Stalls float64
	// LatencyStalls restricts to latency samples (for latency-hiding
	// estimators).
	LatencyStalls float64
	// prunedBy is empty for surviving edges, otherwise the rule name.
	prunedBy string
}

// PrunedBy reports which rule removed the edge ("" = kept).
func (e *Edge) PrunedBy() string { return e.prunedBy }

// Options toggles blamer heuristics; the zero value enables everything
// (the paper's configuration).
type Options struct {
	// DisableOpcodePrune, DisableDominatorPrune, DisableLatencyPrune
	// switch off individual pruning rules (Figure 7 compares coverage
	// with and without pruning).
	DisableOpcodePrune    bool
	DisableDominatorPrune bool
	DisableLatencyPrune   bool
	// DisableIssueWeight / DisablePathWeight turn off the two
	// apportioning heuristics of Equation 1.
	DisableIssueWeight bool
	DisablePathWeight  bool
}

// Result is the blame analysis of one function.
type Result struct {
	FS    *structure.FuncStructure
	Edges []*Edge
	// Self[pc][reason] carries the non-dependency stalls (instruction
	// fetch, memory throttle, pipe busy, ...), which stay at the
	// instruction that reported them.
	Self map[int]map[gpusim.StallReason]int64
	// SelfLatency restricts Self to latency samples.
	SelfLatency map[int]map[gpusim.StallReason]int64
	// UseNodes lists the instructions whose stalls were attributed.
	UseNodes []int
}

// Analyze blames one function's stalls. stats and issued are aligned
// with the function's instruction array.
func Analyze(fs *structure.FuncStructure, stats []sampling.PCStats, issued []int64,
	gpu *arch.GPU, opts Options) (*Result, error) {
	n := len(fs.Fn.Instrs)
	if len(stats) != n || len(issued) != n {
		return nil, fmt.Errorf("blamer: stats/issued length mismatch (%d/%d vs %d instrs)",
			len(stats), len(issued), n)
	}
	b := &blamer{
		fs: fs, stats: stats, issued: issued, gpu: gpu, opts: opts,
		preds: buildPreds(fs),
	}
	res := &Result{
		FS:          fs,
		Self:        map[int]map[gpusim.StallReason]int64{},
		SelfLatency: map[int]map[gpusim.StallReason]int64{},
	}
	depReasons := []gpusim.StallReason{
		gpusim.ReasonMemoryDependency,
		gpusim.ReasonExecutionDependency,
		gpusim.ReasonSync,
	}
	for j := 0; j < n; j++ {
		st := &stats[j]
		if st.Total == 0 {
			continue
		}
		// Self-attributed reasons pass through.
		for r := gpusim.StallReason(1); r < gpusim.NumReasons; r++ {
			if r.IsDependency() || st.Stalls[r] == 0 {
				continue
			}
			if res.Self[j] == nil {
				res.Self[j] = map[gpusim.StallReason]int64{}
				res.SelfLatency[j] = map[gpusim.StallReason]int64{}
			}
			res.Self[j][r] += st.Stalls[r]
			res.SelfLatency[j][r] += st.LatencyStalls[r]
		}
		// Dependency reasons get blamed backwards.
		hasDep := false
		for _, r := range depReasons {
			if st.Stalls[r] == 0 {
				continue
			}
			hasDep = true
			edges := b.edgesFor(j, r)
			apportion(edges, st.Stalls[r], st.LatencyStalls[r], opts)
			res.Edges = append(res.Edges, edges...)
		}
		if hasDep {
			res.UseNodes = append(res.UseNodes, j)
		}
	}
	return res, nil
}

// SurvivingEdges lists edges that passed pruning.
func (r *Result) SurvivingEdges() []*Edge {
	var out []*Edge
	for _, e := range r.Edges {
		if e.prunedBy == "" {
			out = append(out, e)
		}
	}
	return out
}

// SingleDependencyCoverage is the Figure 7 metric: the fraction of graph
// nodes that either have no incoming edge or whose incoming edges all
// represent different dependencies (distinct detail classes), so stalls
// attribute without apportioning. When pruned is true only surviving
// edges count; otherwise all constructed edges count (the "before
// pruning" bars).
func (r *Result) SingleDependencyCoverage(pruned bool) float64 {
	nodes := map[int]bool{}
	incoming := map[int]map[Detail]int{}
	for _, e := range r.Edges {
		if pruned && e.prunedBy != "" {
			continue
		}
		nodes[e.Def] = true
		nodes[e.Use] = true
		if incoming[e.Use] == nil {
			incoming[e.Use] = map[Detail]int{}
		}
		incoming[e.Use][e.Detail]++
	}
	for _, j := range r.UseNodes {
		nodes[j] = true
	}
	if len(nodes) == 0 {
		return 1
	}
	single := 0
	for n := range nodes {
		ok := true
		for _, cnt := range incoming[n] {
			if cnt > 1 {
				ok = false
				break
			}
		}
		if ok {
			single++
		}
	}
	return float64(single) / float64(len(nodes))
}

type blamer struct {
	fs     *structure.FuncStructure
	stats  []sampling.PCStats
	issued []int64
	gpu    *arch.GPU
	opts   Options
	preds  [][]int
}

// buildPreds inverts the instruction-level successor relation.
func buildPreds(fs *structure.FuncStructure) [][]int {
	n := len(fs.Fn.Instrs)
	preds := make([][]int, n)
	var scratch []int
	for i := 0; i < n; i++ {
		scratch = fs.CFG.InstrSuccs(scratch[:0], i)
		for _, s := range scratch {
			preds[s] = append(preds[s], i)
		}
	}
	return preds
}

// edgesFor builds (and prunes) the candidate dependency edges for the
// stalls of reason r observed at instruction j.
func (b *blamer) edgesFor(j int, reason gpusim.StallReason) []*Edge {
	var cands []candidate
	if reason == gpusim.ReasonSync {
		cands = b.sliceSync(j)
	} else {
		cands = b.slice(j)
	}
	edges := make([]*Edge, 0, len(cands))
	seen := map[int]bool{}
	for _, c := range cands {
		if seen[c.def] {
			continue // one edge per (def, use, reason)
		}
		seen[c.def] = true
		def := &b.fs.Fn.Instrs[c.def]
		e := &Edge{
			Def:    c.def,
			Use:    j,
			Reg:    c.reg,
			Reason: reason,
			Detail: classify(def, reason, c.war),
			Issued: b.issued[c.def],
		}
		e.PathLen = b.pathLen(c.def, j)
		b.prune(e)
		edges = append(edges, e)
	}
	return edges
}

func (b *blamer) pathLen(def, use int) int {
	if l := b.fs.CFG.LongestDist(def, use); l > 0 {
		return l
	}
	if l := b.fs.CFG.ShortestDist(def, use); l > 0 {
		return l
	}
	return 1
}
