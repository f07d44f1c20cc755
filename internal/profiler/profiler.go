// Package profiler drives a simulated kernel launch with PC sampling
// enabled and condenses the result into a serializable profile, playing
// the role of GPA's runtime profiler (Section 3, the online half of
// Figure 2): it records kernel launch statistics (grid, block,
// occupancy, duration) plus per-PC sample counters, attributed to
// functions by name and function-local PC so the offline analyzers can
// join them with CUBIN-derived structure.
//
// Input is a loaded program, a launch config, a workload, and Options
// naming the architecture model the launch runs on (the public gpa API
// fills in the V100 for a nil model before calling in here). Output is a
// *Profile — including the warps-per-scheduler W and issue ratio RI of
// Equations 6-9, and the non-default architecture model it was taken
// on — that Save/LoadFile round-trip through JSON for offline
// analysis.
package profiler

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"gpa/internal/arch"
	"gpa/internal/gpusim"
	"gpa/internal/sampling"
	"gpa/internal/sass"
)

// Options configures a profiling run.
type Options struct {
	// GPU is the model the launch runs on; nil is refused (ErrBadKernel,
	// from gpusim.Run).
	GPU *arch.GPU
	// SamplePeriod in cycles; 0 uses 64.
	SamplePeriod int
	// SimSMs bounds detailed SM simulation (0 uses the gpusim default).
	SimSMs int
	Seed   uint64
	// Parallelism bounds concurrent SM simulation (0 uses GOMAXPROCS);
	// results are identical at every level.
	Parallelism int
}

// StallCounts maps stall reason names to sample counts (JSON-friendly).
type StallCounts map[string]int64

// PCRecord is the per-instruction sample summary.
type PCRecord struct {
	Func string `json:"func"`
	// PC is the function-local byte offset.
	PC   uint32 `json:"pc"`
	File string `json:"file,omitempty"`
	Line int    `json:"line,omitempty"`

	Total   int64 `json:"total"`
	Active  int64 `json:"active"`
	Latency int64 `json:"latency"`
	// Issued is the exact dynamic issue count from the simulator (the
	// inst_executed counter a real profiler reads).
	Issued int64 `json:"issued"`

	Stalls        StallCounts `json:"stalls,omitempty"`
	LatencyStalls StallCounts `json:"latencyStalls,omitempty"`
}

// Profile is one kernel launch's measurement record.
type Profile struct {
	Kernel string `json:"kernel"`
	// Arch is the module's compile-target SM flag.
	Arch int `json:"arch"`
	// GPU is the canonical registry key of the architecture model the
	// profile was taken on, when it differs from the default (the
	// paper's V100). Empty means the default; offline analysis
	// (gpa.AdviseFromProfile) resolves this so a T4 profile is not
	// silently analyzed with V100 limits. Recording only the non-default
	// case keeps default-profile digests (cmd/drift-check) stable across
	// revisions.
	GPU             string `json:"gpu,omitempty"`
	Cycles          int64  `json:"cycles"`
	Blocks          int    `json:"blocks"`
	ThreadsPerBlock int    `json:"threadsPerBlock"`
	ActiveSMs       int    `json:"activeSMs"`
	NumSMs          int    `json:"numSMs"`
	SchedulersPerSM int    `json:"schedulersPerSM"`
	// WarpsPerScheduler is the resident-warp count per scheduler (the W
	// of Equations 6-9).
	WarpsPerScheduler int    `json:"warpsPerScheduler"`
	OccupancyLimiter  string `json:"occupancyLimiter"`
	SamplePeriod      int    `json:"samplePeriod"`
	BufferFlushes     int    `json:"bufferFlushes"`

	TotalSamples   int64 `json:"totalSamples"`
	ActiveSamples  int64 `json:"activeSamples"`
	LatencySamples int64 `json:"latencySamples"`
	// IssueRatio is RI: issued samples / all samples.
	IssueRatio float64 `json:"issueRatio"`

	Records []PCRecord `json:"records"`

	// Work is the record of the simulation that took the profile: how it
	// was computed, never part of what it is (no encoding, no digest).
	Work gpusim.Work `json:"-"`
}

// CollectProgram profiles one launch of an already-loaded program,
// letting callers that profile the same kernel repeatedly skip the
// per-run module flattening. The context cancels the underlying
// simulation (see gpusim.Run); cancellation never alters the profile
// of a run that completes.
func CollectProgram(ctx context.Context, prog *gpusim.Program, launch gpusim.LaunchConfig, wl gpusim.Workload, opts Options) (*Profile, error) {
	mod := prog.Module
	period := opts.SamplePeriod
	if period <= 0 {
		period = 64
	}
	// The per-SM sample counters are pure scratch: nothing in the
	// returned Profile aliases them, so they recycle through a pool
	// alongside the simulator's per-run arenas (the Profile itself is
	// the caller's, and always fresh).
	ctr := getCounter(len(prog.Instrs))
	defer counterPool.Put(ctr)
	res, err := gpusim.Run(ctx, prog, launch, wl, gpusim.Config{
		GPU:          opts.GPU,
		SimSMs:       opts.SimSMs,
		SamplePeriod: period,
		Sink:         ctr,
		Seed:         opts.Seed,
		Parallelism:  opts.Parallelism,
	})
	if err != nil {
		return nil, fmt.Errorf("profiler: %w", err)
	}
	defer prog.Recycle(res)
	agg, flushes := ctr.Merge()

	gpuKey := arch.KeyOf(opts.GPU)
	if gpuKey == defaultGPUKey {
		gpuKey = "" // default model: omitted for digest stability
	}
	p := &Profile{
		Kernel:            launch.Entry,
		Arch:              mod.Arch,
		GPU:               gpuKey,
		Cycles:            res.Cycles,
		Blocks:            res.BlocksLaunched,
		ThreadsPerBlock:   res.ThreadsPerBlock,
		ActiveSMs:         res.ActiveSMs,
		NumSMs:            opts.GPU.NumSMs,
		SchedulersPerSM:   opts.GPU.SchedulersPerSM,
		WarpsPerScheduler: res.WarpsPerScheduler,
		OccupancyLimiter:  res.Occupancy.Limiter,
		SamplePeriod:      period,
		BufferFlushes:     flushes,
		TotalSamples:      agg.Total,
		ActiveSamples:     agg.Active,
		LatencySamples:    agg.Latency,
		IssueRatio:        agg.IssueRatio(),
		Work:              res.Work,
	}
	for flat, st := range agg.PerPC {
		if st.Total == 0 && res.IssuedPerPC[flat] == 0 {
			continue
		}
		li := prog.LineAt(flat)
		rec := PCRecord{
			Func:    prog.FuncName(flat),
			PC:      prog.LocalPC(flat),
			File:    li.File,
			Line:    li.Line,
			Total:   st.Total,
			Active:  st.Active,
			Latency: st.Latency,
			Issued:  res.IssuedPerPC[flat],
		}
		for r := gpusim.StallReason(1); r < gpusim.NumReasons; r++ {
			if st.Stalls[r] > 0 {
				if rec.Stalls == nil {
					rec.Stalls = StallCounts{}
				}
				rec.Stalls[r.String()] = st.Stalls[r]
			}
			if st.LatencyStalls[r] > 0 {
				if rec.LatencyStalls == nil {
					rec.LatencyStalls = StallCounts{}
				}
				rec.LatencyStalls[r.String()] = st.LatencyStalls[r]
			}
		}
		p.Records = append(p.Records, rec)
	}
	return p, nil
}

// defaultGPUKey is the registry key of the default model, resolved once
// (VoltaV100 constructs a fresh model per call).
var defaultGPUKey = arch.KeyOf(arch.VoltaV100())

// counterPool recycles the per-collection scratch state (the per-SM
// sample counters and their merged aggregate) between profiling runs.
var counterPool sync.Pool // *sampling.Counter

func getCounter(numPCs int) *sampling.Counter {
	c, _ := counterPool.Get().(*sampling.Counter)
	if c == nil {
		c = &sampling.Counter{}
	}
	c.Reset(0, numPCs) // 0: the default per-SM buffer capacity
	return c
}

// Save writes the profile as JSON.
func (p *Profile) Save(path string) error {
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return fmt.Errorf("profiler: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// Digest returns a stable content digest of the profile: SHA-256 over
// its canonical JSON encoding (map keys sorted by encoding/json), hex
// encoded. Equal profiles — sample counters included — digest equally
// across builds, which is what cmd/drift-check compares between
// revisions and what the advice service reports per response so
// deployments can cross-check determinism.
func (p *Profile) Digest() (string, error) {
	data, err := json.Marshal(p)
	if err != nil {
		return "", fmt.Errorf("profiler: digest: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// LoadFile reads a profile written by Save.
func LoadFile(path string) (*Profile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("profiler: %w", err)
	}
	var p Profile
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("profiler: %s: %w", path, err)
	}
	return &p, nil
}

// reasonByName resolves a stall reason name back to its enum value.
var reasonByName = func() map[string]gpusim.StallReason {
	m := map[string]gpusim.StallReason{}
	for r := gpusim.StallReason(0); r < gpusim.NumReasons; r++ {
		m[r.String()] = r
	}
	return m
}()

// FuncView is a dense per-function view of a profile, instruction index
// aligned with the function's instruction array.
type FuncView struct {
	Fn     *sass.Function
	Stats  []sampling.PCStats
	Issued []int64
}

// FuncViews joins the profile's records against a module, producing one
// dense view per function that has any samples.
func (p *Profile) FuncViews(mod *sass.Module) (map[string]*FuncView, error) {
	views := map[string]*FuncView{}
	for _, rec := range p.Records {
		v := views[rec.Func]
		if v == nil {
			fn := mod.Function(rec.Func)
			if fn == nil {
				return nil, fmt.Errorf("profiler: profile references unknown function %q", rec.Func)
			}
			v = &FuncView{
				Fn:     fn,
				Stats:  make([]sampling.PCStats, len(fn.Instrs)),
				Issued: make([]int64, len(fn.Instrs)),
			}
			views[rec.Func] = v
		}
		idx := int(rec.PC) / sass.InstrBytes
		if idx < 0 || idx >= len(v.Stats) {
			return nil, fmt.Errorf("profiler: record pc 0x%x out of range for %q", rec.PC, rec.Func)
		}
		st := &v.Stats[idx]
		st.Total += rec.Total
		st.Active += rec.Active
		st.Latency += rec.Latency
		v.Issued[idx] += rec.Issued
		for name, n := range rec.Stalls {
			r, ok := reasonByName[name]
			if !ok {
				return nil, fmt.Errorf("profiler: unknown stall reason %q", name)
			}
			st.Stalls[r] += n
		}
		for name, n := range rec.LatencyStalls {
			r, ok := reasonByName[name]
			if !ok {
				return nil, fmt.Errorf("profiler: unknown stall reason %q", name)
			}
			st.LatencyStalls[r] += n
		}
	}
	return views, nil
}
