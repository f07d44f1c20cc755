// Package kernels provides the benchmark workloads of the GPA paper's
// evaluation (Table 3): synthetic SASS kernels standing in for the
// Rodinia benchmarks and the four larger applications (Quicksilver,
// ExaTENSOR, PeleC, Minimod). Each benchmark row carries
//
//   - a BASELINE kernel engineered to exhibit the paper's inefficiency
//     pattern for that row (type-conversion chains in hotspot, barrier
//     imbalance in nw, short def-use distances in b+tree, low occupancy
//     in gaussian, ...),
//   - an OPTIMIZED variant with the row's suggested optimization
//     applied, and
//   - the paper's reported achieved/estimated speedups for comparison.
//
// The kernels are synthetic: the real applications' data and CUDA code
// cannot run without a GPU, but each pair triggers the same stall
// signature through the same simulator mechanics, so optimizer matching,
// speedup estimation, and achieved-speedup measurement run end to end
// (see README.md, "Notes").
//
// The rows drive the whole Figure 2 pipeline: Benchmark.Run measures
// baseline and optimized variants and extracts the advisor's estimate,
// producing the Achieved/Estimated/Error columns of Table 3.
// RunOptions.GPU selects the architecture model the row runs on — the
// paper's V100 by default, or any registered model for cross-arch
// sweeps (the kernels assemble as sm_70 modules; the launch shapes were
// tuned on V100 geometry but run on every model whose limits they fit).
// The harness is a plain client of the library: a row is two
// Kernel.Measure calls and one Kernel.Advise, in order, on one
// simulated SM.
package kernels

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"gpa"
	"gpa/internal/arch"
)

// Variant is one concrete kernel build: assembly, launch configuration,
// and workload behaviour.
type Variant struct {
	Asm    string
	Launch gpa.Launch
	Spec   *gpa.WorkloadSpec
}

// builtVariant memoizes one variant's front-end build; the once makes
// concurrent first builders race-free without holding buildMu across
// assembly.
type builtVariant struct {
	once sync.Once
	k    *gpa.Kernel
	wl   gpa.Workload
	err  error
}

// buildKey identifies a variant by content: the same assembly, launch
// shape, and spec binding always produce the same kernel, so sharing
// one build across equal variants is observationally free.
type buildKey struct {
	asm    string
	launch gpa.Launch
	spec   *gpa.WorkloadSpec
}

var (
	buildMu    sync.Mutex
	buildCache = map[buildKey]*builtVariant{}
)

// Build assembles the variant and binds its workload. The whole
// front-end — assembly, module flattening, workload binding, and the
// kernel's lazily memoized program/structure — is
// architecture-independent, so it runs once per distinct variant and
// every caller shares the result: a cross-architecture sweep builds
// each kernel once, not once per model. The returned kernel and
// workload are safe for concurrent use and must be treated as
// read-only.
func (v *Variant) Build() (*gpa.Kernel, gpa.Workload, error) {
	key := buildKey{asm: v.Asm, launch: v.Launch, spec: v.Spec}
	buildMu.Lock()
	b := buildCache[key]
	if b == nil {
		b = &builtVariant{}
		buildCache[key] = b
	}
	buildMu.Unlock()
	b.once.Do(func() {
		k, err := gpa.LoadKernelAsm(v.Asm, v.Launch)
		if err != nil {
			b.err = err
			return
		}
		if v.Spec != nil {
			wl, err := k.BindWorkload(v.Spec)
			if err != nil {
				b.err = err
				return
			}
			b.wl = wl
		}
		b.k = k
	})
	return b.k, b.wl, b.err
}

// Benchmark is one Table 3 row.
type Benchmark struct {
	// App and Kernel name the row ("rodinia/hotspot",
	// "calculate_temp").
	App    string
	Kernel string
	// Optimization is the row's label ("Strength Reduction").
	Optimization string
	// Optimizer is the advisor optimizer expected to match
	// ("GPUStrengthReductionOptimizer").
	Optimizer string
	// PaperAchieved / PaperEstimated are the speedups Table 3 reports.
	PaperAchieved  float64
	PaperEstimated float64
	// Rodinia marks the rows included in the Figure 7 coverage plot.
	Rodinia bool

	Base, Opt Variant
}

// ID renders "app/kernel/optimization" for lookups.
func (b *Benchmark) ID() string {
	return fmt.Sprintf("%s %s %s", b.App, b.Kernel, b.Optimization)
}

// Outcome is the measured reproduction of one row.
type Outcome struct {
	Bench *Benchmark
	// BaseCycles / OptCycles are simulated kernel durations.
	BaseCycles, OptCycles int64
	// Achieved is BaseCycles / OptCycles.
	Achieved float64
	// Estimated is the advisor's speedup estimate for the row's
	// optimizer on the baseline profile.
	Estimated float64
	// Rank is the optimizer's position in the advice report (1-based;
	// 0 = absent).
	Rank int
	// Error is |Estimated-Achieved|/Achieved (the Table 3 error
	// column).
	Error float64
	// Report is the baseline advice report.
	Report *gpa.Report
}

// RunOptions selects what a reproduction run simulates.
type RunOptions struct {
	// GPU selects the architecture model the row runs on (nil = the
	// paper's V100). Every measurement and the advice report use the
	// same model.
	GPU  *arch.GPU
	Seed uint64
}

// options is the gpa.Options every harness run uses: one simulated SM,
// simulated sequentially. The whole evaluation regenerates in well
// under a second this way, so the harness layers no concurrency of its
// own on top of the library.
func (o RunOptions) options(wl gpa.Workload) *gpa.Options {
	return &gpa.Options{GPU: o.GPU, SimSMs: 1, Seed: o.Seed, Parallelism: 1, Workload: wl}
}

// Run advises on the baseline, measures the optimized variant and
// extracts the advisor's estimate for the expected optimizer: two
// simulations, stopping at the first failure (which can have cost a
// full MaxCycles simulation). A canceled ctx aborts the simulation in
// flight and returns an error wrapping gpa.ErrCanceled.
func (b *Benchmark) Run(ctx context.Context, ro RunOptions) (*Outcome, error) {
	baseK, baseWL, err := b.Base.Build()
	if err != nil {
		return nil, fmt.Errorf("%s: base: %w", b.ID(), err)
	}
	optK, optWL, err := b.Opt.Build()
	if err != nil {
		return nil, fmt.Errorf("%s: opt: %w", b.ID(), err)
	}
	report, err := baseK.Advise(ctx, ro.options(baseWL))
	if err != nil {
		return nil, fmt.Errorf("%s: advise: %w", b.ID(), err)
	}
	optCycles, err := optK.Measure(ctx, ro.options(optWL))
	if err != nil {
		return nil, fmt.Errorf("%s: opt measure: %w", b.ID(), err)
	}
	return b.outcome(optCycles, report), nil
}

// outcome assembles the row's Outcome from its two simulations. The
// base cycles are the advise run's: sampling only observes, so the
// profiled run takes exactly the cycles an unsampled Measure would
// (TestSamplingOnlyObserves).
func (b *Benchmark) outcome(optCycles int64, report *gpa.Report) *Outcome {
	baseCycles := report.Profile.Cycles
	out := &Outcome{
		Bench:      b,
		BaseCycles: baseCycles,
		OptCycles:  optCycles,
		Achieved:   float64(baseCycles) / float64(optCycles),
		Report:     report,
	}
	for i, e := range report.Advice.Entries {
		if e.Optimizer == b.Optimizer {
			out.Estimated = e.Speedup
			out.Rank = i + 1
			break
		}
	}
	if out.Achieved > 0 && out.Estimated > 0 {
		out.Error = math.Abs(out.Estimated-out.Achieved) / out.Achieved
	}
	return out
}

var registry []*Benchmark

func register(b *Benchmark) { registry = append(registry, b) }

// All returns every Table 3 benchmark in table order.
func All() []*Benchmark {
	out := append([]*Benchmark(nil), registry...)
	return out
}

// Rodinia returns the rows included in Figure 7.
func Rodinia() []*Benchmark {
	var out []*Benchmark
	seen := map[string]bool{}
	for _, b := range registry {
		if b.Rodinia && !seen[b.App] {
			seen[b.App] = true
			out = append(out, b)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].App < out[j].App })
	return out
}

// Find locates a benchmark by app (and optional kernel/optimization
// substrings).
func Find(app string) []*Benchmark {
	var out []*Benchmark
	for _, b := range registry {
		if b.App == app {
			out = append(out, b)
		}
	}
	return out
}

// GeoMean computes the geometric mean of a slice of positive ratios.
func GeoMean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vals)))
}
