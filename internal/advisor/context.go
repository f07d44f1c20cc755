// Package advisor implements GPA's performance optimizers and
// estimators (Section 5 of the paper). Optimizers encode pattern rules
// that match apportioned stalls against program structure and
// architectural features; estimators model the GPU's execution to
// predict each optimizer's speedup (Equations 2-10); the advisor ranks
// the optimizers by estimated speedup and renders a Figure 8-style
// advice report.
//
// The optimizer set is the paper's Table 2 — six stall-elimination
// optimizers (register reuse, strength reduction, function split, fast
// math, warp balance, memory transaction reduction), three
// latency-hiding optimizers (loop unrolling, code reordering, function
// inlining), and two parallel optimizers (block increase, thread
// increase) — and is extensible: Advise accepts custom optimizers.
//
// This is the last stage of the Figure 2 pipeline: input is the module,
// its profile, and the arch.GPU model the profile was taken on (the
// parallel estimators read the model's SM count and occupancy limits,
// so the same profile yields different advice on a 40-SM T4 than on a
// 108-SM A100); output is a ranked *Advice report. BuildContext runs
// the blamer over every profiled function first, so Context carries
// both the raw sample quantities (T, A, L) and the apportioned blame
// edges.
package advisor

import (
	"fmt"

	"gpa/internal/arch"
	"gpa/internal/blamer"
	"gpa/internal/cfg"
	"gpa/internal/gpusim"
	"gpa/internal/profiler"
	"gpa/internal/sampling"
	"gpa/internal/sass"
	"gpa/internal/structure"
)

// FuncContext is the per-function analysis state.
type FuncContext struct {
	FS     *structure.FuncStructure
	Stats  []sampling.PCStats
	Issued []int64
	Blame  *blamer.Result
}

// Context bundles everything optimizers and estimators consume.
type Context struct {
	GPU       *arch.GPU
	Module    *sass.Module
	Structure *structure.Structure
	Profile   *profiler.Profile
	Funcs     map[string]*FuncContext

	// T, A, L are the total, active, and latency sample counts of the
	// kernel (the quantities of Equations 2-5).
	T, A, L int64
	// Stalls[r] totals stall samples per reason across all functions.
	Stalls [gpusim.NumReasons]int64
}

// BuildContext joins a module with its profile: program structure is
// recovered, per-function sample views are built, and the instruction
// blamer runs over every profiled function.
func BuildContext(mod *sass.Module, prof *profiler.Profile, gpu *arch.GPU,
	opts blamer.Options) (*Context, error) {
	st, err := structure.Analyze(mod)
	if err != nil {
		return nil, fmt.Errorf("advisor: %w", err)
	}
	return BuildContextWithStructure(mod, st, prof, gpu, opts)
}

// BuildContextWithStructure is BuildContext with the program structure
// supplied by the caller. The structure is the arch-independent half of
// the front-end; gpa.Kernel memoizes it, so its advice calls on every
// architecture model share one analysis of the CFG and loop nests. st
// must have been analyzed from mod and is only read.
func BuildContextWithStructure(mod *sass.Module, st *structure.Structure, prof *profiler.Profile,
	gpu *arch.GPU, opts blamer.Options) (*Context, error) {
	if gpu == nil {
		g, err := arch.ByArchFlag(mod.Arch)
		if err != nil {
			return nil, fmt.Errorf("advisor: %w", err)
		}
		gpu = g
	}
	views, err := prof.FuncViews(mod)
	if err != nil {
		return nil, fmt.Errorf("advisor: %w", err)
	}
	ctx := &Context{
		GPU:       gpu,
		Module:    mod,
		Structure: st,
		Profile:   prof,
		Funcs:     map[string]*FuncContext{},
		T:         prof.TotalSamples,
		A:         prof.ActiveSamples,
		L:         prof.LatencySamples,
	}
	for name, v := range views {
		fs := st.Func(name)
		if fs == nil {
			return nil, fmt.Errorf("advisor: profile names unknown function %q", name)
		}
		bl, err := blamer.Analyze(fs, v.Stats, v.Issued, gpu, opts)
		if err != nil {
			return nil, fmt.Errorf("advisor: %w", err)
		}
		ctx.Funcs[name] = &FuncContext{FS: fs, Stats: v.Stats, Issued: v.Issued, Blame: bl}
		for i := range v.Stats {
			for r := gpusim.StallReason(1); r < gpusim.NumReasons; r++ {
				ctx.Stalls[r] += v.Stats[i].Stalls[r]
			}
		}
	}
	return ctx, nil
}

// Hotspot is one ranked def/use pair (or single site) contributing
// matched stalls.
type Hotspot struct {
	FuncName string
	// Def and Use are instruction indices; Use is -1 for self-attributed
	// hotspots (throttle, fetch).
	Def, Use int
	// Stalls is the matched stall mass at this hotspot.
	Stalls float64
	// Distance is the def->use path length in issue slots.
	Distance int
	// Detail labels the dependency class.
	Detail string
}

// Match is an optimizer's result: the stall mass it matched and where.
type Match struct {
	// Matched is M of Equation 2 (stall samples matched).
	Matched float64
	// MatchedLatency is ML of Equations 3-5 (latency samples matched).
	MatchedLatency float64
	// ScopeActives, for scope-limited latency hiding (Equation 5), maps
	// a scope label to (active samples in scope, matched latency in
	// scope).
	Scopes []Scope
	// Hotspots ranked by stalls, descending.
	Hotspots []Hotspot
	// Applicable is false when the optimizer's precondition failed
	// entirely (no advice entry is emitted).
	Applicable bool
}

// Scope is one optimization scope (a loop or function) for Equation 5.
type Scope struct {
	Label string
	// Actives is Σ active samples within the scope (the paper's
	// Σ_{l' ∈ nested(l)} A_{l'}).
	Actives int64
	// MatchedLatency is ML_l.
	MatchedLatency float64
}

// Optimizer matches an inefficiency pattern.
type Optimizer interface {
	Name() string
	// Category is "stall elimination", "latency hiding", or "parallel".
	Category() string
	// Suggestion is the human-readable optimization guidance.
	Suggestion() string
	Match(ctx *Context) *Match
}

// Estimator predicts an optimizer's speedup from its match.
type Estimator interface {
	Estimate(ctx *Context, m *Match) float64
}

// activeSamplesInLoop sums active samples over a loop's blocks. Nested
// loops' blocks are subsets of the outer loop's block set, so this is
// exactly Σ_{l' ∈ nested(l)} A_{l'} of Equation 5.
func activeSamplesInLoop(fc *FuncContext, l *cfg.Loop) int64 {
	var total int64
	for b := range l.Blocks {
		blk := fc.FS.CFG.Blocks[b]
		for i := blk.Start; i < blk.End; i++ {
			total += fc.Stats[i].Active
		}
	}
	return total
}
