// Package gpa is a GPU performance advisor based on instruction
// sampling, reproducing the system of Zhou et al., "GPA: A GPU
// Performance Advisor Based on Instruction Sampling" (CGO 2021), on a
// simulated GPU. The paper evaluates on Volta V100, which remains the
// default model; the pipeline itself is architecture-parametric, and
// Options.GPU (resolved by LookupGPU, enumerated by GPUs) selects any
// bundled model (V100, T4, A100) or a caller's own *arch.GPU.
//
// The pipeline mirrors the paper's Figure 2:
//
//	kernel (SASS text or CUBIN blob)
//	   │ profiler: simulate + PC sampling        (runtime)
//	   ▼
//	profile (per-PC samples, launch statistics)
//	   │ static analyzer: CFG, loops, structure  (offline)
//	   │ instruction blamer: slicing, pruning, apportioning
//	   │ optimizers + estimators: Table 2, Equations 2-10
//	   ▼
//	ranked advice report (Figure 8 format)
//
// # Quick start (v2 API)
//
//	kernel, err := gpa.LoadKernelAsm(src, gpa.Launch{
//		Entry: "mykernel", GridX: 160, BlockX: 256,
//	})
//	report, err := kernel.Advise(ctx, nil)
//	fmt.Print(report)
//
// Every operation that can simulate takes a context.Context as its
// first argument and honors cancellation promptly: a canceled ctx
// returns an error wrapping both ErrCanceled and ctx.Err() within one
// simulator checkpoint interval, and cancellation never alters the
// result of a run that completes. Failures across the whole API wrap
// the typed sentinels in errors.go (ErrUnknownArch, ErrBadKernel,
// ErrAssemble, ErrCanceled, ErrQueueFull, ...), matched with
// errors.Is/As. Report.Result produces the versioned structured result
// (schema gpa.ResultSchemaVersion) that cmd/gpad serves as JSON.
//
// The package wraps the internal building blocks (sass assembler, cubin
// container, cycle-level gpusim simulator, sampling, profiler, blamer,
// advisor); power users can drive those stages separately via the
// exported helpers on Kernel.
//
// For batch and serving workloads, NewEngine builds a shared scheduler
// with a content-addressed artifact store and singleflight deduplication
// (Engine.Do, Engine.DoAll, Engine.Sweep); cmd/gpad serves the same
// engine over HTTP. Its options, results and store are the serving
// layer's own types (EngineOptions, JobResult's embedded response,
// Store), so nothing is copied between the two.
package gpa

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"

	"gpa/internal/apierr"
	"gpa/internal/arch"
	"gpa/internal/blamer"
	"gpa/internal/cubin"
	"gpa/internal/gpusim"
	"gpa/internal/profiler"
	"gpa/internal/sass"
	"gpa/internal/structure"

	adv "gpa/internal/advisor"
)

// Launch describes a kernel launch configuration.
type Launch struct {
	// Entry is the kernel (global function) name.
	Entry string
	// Grid and block dimensions; zero components default to 1.
	GridX, GridY, GridZ    int
	BlockX, BlockY, BlockZ int
	// RegsPerThread and SharedMemPerBlock feed occupancy calculation.
	RegsPerThread     int
	SharedMemPerBlock int
}

func (l Launch) config() gpusim.LaunchConfig {
	return gpusim.LaunchConfig{
		Entry:             l.Entry,
		Grid:              gpusim.Dim3{X: l.GridX, Y: l.GridY, Z: l.GridZ},
		Block:             gpusim.Dim3{X: l.BlockX, Y: l.BlockY, Z: l.BlockZ},
		RegsPerThread:     l.RegsPerThread,
		SharedMemPerBlock: l.SharedMemPerBlock,
	}
}

// Options tunes profiling and analysis.
type Options struct {
	// GPU selects the architecture model (nil defaults to the paper's
	// V100; use LookupGPU or arch.Lookup to resolve a model by name).
	GPU *arch.GPU
	// SamplePeriod is the PC sampling period in cycles (0 = 64).
	SamplePeriod int
	// SimSMs bounds detailed SM simulation (0 = 4).
	SimSMs int
	// Parallelism bounds how many SMs are simulated concurrently
	// (0 = GOMAXPROCS for a Kernel method; an Engine resolves 0 when the
	// job is granted a worker slot, to the cores the jobs holding the
	// other slots leave free). Results are bit-identical at every
	// level; with Parallelism > 1 the Workload must be safe for
	// concurrent use.
	// WorkloadSpec binding is itself read-only, but the TripFuncs a
	// spec carries are invoked concurrently too and must not mutate
	// shared state — set Parallelism to 1 to keep the old
	// single-goroutine contract.
	Parallelism int
	// Seed perturbs the simulator's deterministic latency jitter.
	Seed uint64
	// Workload supplies branch trip counts and memory behaviour; nil
	// runs every conditional branch not-taken with default latencies.
	Workload Workload
}

// Workload re-exports the simulator's workload model.
type Workload = gpusim.Workload

// WorkloadSpec re-exports the declarative workload builder.
type WorkloadSpec = gpusim.Spec

// Site names an instruction by (function, label) in a workload spec.
type Site = gpusim.Site

// WarpCtx identifies a warp in workload callbacks.
type WarpCtx = gpusim.WarpCtx

// TripFunc yields a per-warp loop trip count in workload specs.
type TripFunc = gpusim.TripFunc

// UniformTrips builds a TripFunc with the same count for all warps.
func UniformTrips(n int) TripFunc { return gpusim.UniformTrips(n) }

// Kernel is a loaded GPU kernel plus its launch configuration.
type Kernel struct {
	Module *sass.Module
	Launch Launch

	// prog caches the flattened program so repeated Measure/Profile
	// calls skip re-loading the module. Guarded by progOnce; the Module
	// must not be mutated after the first simulation.
	prog     *gpusim.Program
	progErr  error
	progOnce sync.Once

	// modHash caches the SHA-256 of the module's canonical cubin
	// encoding, feeding the engine's content-addressed cache key so a
	// warm engine never re-packs the module per job.
	modHash     [32]byte
	modHashErr  error
	modHashOnce sync.Once

	// st caches the recovered program structure (CFG, loop nests, line
	// maps). Structure is architecture-independent, so one analysis
	// serves every Advise and AdviseFromProfile call on the kernel. (An
	// Engine shares the module, program and hash of a kernel across a
	// sweep, and analyzes the structure once per advice it computes.)
	st     *structure.Structure
	stErr  error
	stOnce sync.Once
}

// program returns the kernel's flattened program, loading it on first
// use.
func (k *Kernel) program() (*gpusim.Program, error) {
	k.progOnce.Do(func() {
		k.prog, k.progErr = gpusim.Load(k.Module)
	})
	return k.prog, k.progErr
}

// moduleHash returns the SHA-256 of the module's canonical cubin
// encoding, computing it on first use.
func (k *Kernel) moduleHash() ([32]byte, error) {
	k.modHashOnce.Do(func() {
		blob, err := cubin.Pack(k.Module)
		if err != nil {
			k.modHashErr = err
			return
		}
		k.modHash = sha256.Sum256(blob)
	})
	return k.modHash, k.modHashErr
}

// LoadKernelAsm assembles SASS text into a kernel. Assembly failures,
// an instruction the 128-bit encoding cannot hold included, wrap
// ErrAssemble; launch validation failures wrap ErrBadKernel.
func LoadKernelAsm(src string, launch Launch) (*Kernel, error) {
	mod, err := sass.Assemble(src)
	if err != nil {
		return nil, fmt.Errorf("gpa: %w: %w", ErrAssemble, err)
	}
	k := &Kernel{Module: mod}
	// Packing the module now memoizes the hash the engine keys on and
	// refuses a module that assembles but does not encode.
	if _, err := k.moduleHash(); err != nil {
		return nil, fmt.Errorf("gpa: %w: %w", ErrAssemble, err)
	}
	if launch.Entry == "" {
		ks := mod.Kernels()
		if len(ks) != 1 {
			return nil, fmt.Errorf("gpa: %w: specify Launch.Entry (module has %d kernels)",
				ErrBadKernel, len(ks))
		}
		launch.Entry = ks[0].Name
	}
	if mod.Function(launch.Entry) == nil {
		return nil, fmt.Errorf("gpa: %w: no kernel %q in module", ErrBadKernel, launch.Entry)
	}
	k.Launch = launch
	return k, nil
}

// LoadKernelBinary unpacks a CUBIN blob produced by SaveBinary.
// Malformed blobs and launch validation failures wrap ErrBadKernel.
func LoadKernelBinary(blob []byte, launch Launch) (*Kernel, error) {
	mod, err := cubin.Unpack(blob)
	if err != nil {
		return nil, fmt.Errorf("gpa: %w: %w", ErrBadKernel, err)
	}
	if mod.Function(launch.Entry) == nil {
		return nil, fmt.Errorf("gpa: %w: no kernel %q in module", ErrBadKernel, launch.Entry)
	}
	return &Kernel{Module: mod, Launch: launch}, nil
}

// SaveBinary packs the kernel's module into the CUBIN container format.
func (k *Kernel) SaveBinary() ([]byte, error) { return cubin.Pack(k.Module) }

// BindWorkload resolves a declarative workload spec against the kernel.
func (k *Kernel) BindWorkload(spec *WorkloadSpec) (Workload, error) {
	prog, err := k.program()
	if err != nil {
		return nil, err
	}
	return spec.Bind(prog)
}

// Profile simulates one launch with PC sampling and returns the
// profile. A canceled ctx aborts the simulation promptly with an error
// wrapping ErrCanceled.
func (k *Kernel) Profile(ctx context.Context, opts *Options) (*profiler.Profile, error) {
	o := normalize(opts)
	prog, err := k.program()
	if err != nil {
		return nil, err
	}
	return profiler.CollectProgram(ctx, prog, k.Launch.config(), o.Workload, profiler.Options{
		GPU:          o.GPU,
		SamplePeriod: o.SamplePeriod,
		SimSMs:       o.SimSMs,
		Seed:         o.Seed,
		Parallelism:  o.Parallelism,
	})
}

// Measure simulates one launch without sampling and returns the kernel
// duration in cycles (used to measure achieved speedups). A canceled
// ctx aborts the simulation promptly with an error wrapping
// ErrCanceled.
func (k *Kernel) Measure(ctx context.Context, opts *Options) (int64, error) {
	o := normalize(opts)
	prog, err := k.program()
	if err != nil {
		return 0, err
	}
	wl := o.Workload
	res, err := gpusim.Run(ctx, prog, k.Launch.config(), wl, gpusim.Config{
		GPU:         o.GPU,
		SimSMs:      o.SimSMs,
		Seed:        o.Seed,
		Parallelism: o.Parallelism,
	})
	if err != nil {
		return 0, err
	}
	cycles := res.Cycles
	prog.Recycle(res)
	return cycles, nil
}

// Report is a ranked advice report. Treat it as read-only once
// rendered: String keeps its first rendering.
type Report struct {
	Advice *adv.Advice
	// Profile and Context are the profile the advice was derived from
	// and the analysis context over it (blame results, function views),
	// for callers that want to dig below the report, e.g. with a custom
	// optimizer. Kernel.Advise and AdviseFromProfile always set both. An
	// Engine's report (JobResult.Report) sets neither: the engine serves
	// an advice as its stored advice and report text, and the profile is
	// the same job's JobProfile result.
	Profile *profiler.Profile
	Context *adv.Context

	// text memoizes String; an engine result seeds it with the text the
	// service rendered beside the advice.
	text atomic.Pointer[string]
}

// String renders the Figure 8-style text report, once per report.
func (r *Report) String() string {
	if s := r.text.Load(); s != nil {
		return *s
	}
	var sb strings.Builder
	r.Render(&sb)
	s := sb.String()
	// Concurrent first calls render the same text; either may win.
	r.text.Store(&s)
	return s
}

// Render writes the report.
func (r *Report) Render(w io.Writer) { r.Advice.Render(w) }

// Top returns the n highest-ranked advice entries.
func (r *Report) Top(n int) []adv.AdviceEntry { return r.Advice.Top(n) }

// Advise profiles the kernel and runs the full dynamic analysis:
// instruction blaming, optimizer matching, speedup estimation,
// ranking. A canceled ctx aborts the simulation promptly with an error
// wrapping ErrCanceled.
func (k *Kernel) Advise(ctx context.Context, opts *Options, extra ...adv.RankedOptimizer) (*Report, error) {
	prof, err := k.Profile(ctx, opts)
	if err != nil {
		return nil, err
	}
	return k.AdviseFromProfile(ctx, prof, opts, extra...)
}

// AdviseFromProfile analyses an existing profile (the offline half of
// the pipeline). When the caller does not select an architecture, the
// model recorded in the profile wins, so a profile collected on a T4 is
// not silently analyzed with V100 limits. The offline analysis is
// cheap but still checks ctx before starting, so a batch of canceled
// jobs drains immediately.
func (k *Kernel) AdviseFromProfile(ctx context.Context, prof *profiler.Profile, opts *Options,
	extra ...adv.RankedOptimizer) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := apierr.CtxErr(ctx); err != nil {
		return nil, fmt.Errorf("gpa: %w", err)
	}
	o := normalize(opts)
	if (opts == nil || opts.GPU == nil) && prof.GPU != "" {
		g, err := arch.Lookup(prof.GPU)
		if err != nil {
			return nil, fmt.Errorf("gpa: profile was taken on unknown architecture %q: %w", prof.GPU, err)
		}
		o.GPU = g
	}
	st, err := k.Structure()
	if err != nil {
		return nil, err
	}
	actx, err := adv.BuildContextWithStructure(k.Module, st, prof, o.GPU, blamer.Options{})
	if err != nil {
		return nil, err
	}
	ros := adv.DefaultOptimizers()
	ros = append(ros, extra...)
	advice := adv.Advise(actx, ros...)
	return &Report{Advice: advice, Profile: prof, Context: actx}, nil
}

// Structure returns the kernel's recovered program structure (functions,
// loop nests, line mappings), analyzing it on first use. The result is
// shared: callers must treat it as read-only.
func (k *Kernel) Structure() (*structure.Structure, error) {
	k.stOnce.Do(func() {
		k.st, k.stErr = structure.Analyze(k.Module)
	})
	return k.st, k.stErr
}

// defaultGPU is the shared default architecture model that normalize
// puts in place of a nil Options.GPU, because gpusim.Run rejects a nil
// GPU: one immutable instance, so the nil-GPU fast path does not
// allocate a fresh model per call. Nothing in the pipeline mutates an
// Options.GPU; callers wanting a model to tweak get their own copy from
// V100()/LookupGPU.
var defaultGPU = arch.VoltaV100()

func normalize(opts *Options) Options {
	var o Options
	if opts != nil {
		o = *opts
	}
	if o.GPU == nil {
		o.GPU = defaultGPU
	}
	return o
}

// V100 returns the Volta V100 architecture model used in the paper's
// evaluation (the default when Options.GPU is nil).
func V100() *arch.GPU { return arch.VoltaV100() }

// LookupGPU resolves a bundled architecture model by name ("v100",
// "t4", "a100", an alias like "ampere" or "sm_80", or a full model
// name).
func LookupGPU(name string) (*arch.GPU, error) { return arch.Lookup(name) }

// GPUs returns every bundled architecture model, ordered by SM flag:
// the sweep order of cross-architecture comparisons.
func GPUs() []*arch.GPU { return arch.All() }

// GPUName returns the canonical table key for a model ("v100",
// "t4", "a100"), the name accepted back by LookupGPU.
func GPUName(g *arch.GPU) string { return arch.KeyOf(g) }
