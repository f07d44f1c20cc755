// Package arch captures GPU architectural features as pure parameter
// tables: per-opcode instruction latencies (the fixed-latency values
// microbenchmarking studies report, and upper bounds for
// variable-latency instructions used by GPA's latency-based pruning
// rule), warp and scheduler geometry, occupancy limits, and the
// front-end costs the simulator charges (i-cache lines, fetch
// serialization, block launch overhead).
//
// In the Figure 2 pipeline the package sits under everything: the
// simulator (gpusim) reads geometry and latency tables to execute a
// kernel, the blamer reads latency bounds for its pruning rule
// (Section 4.3), and the advisor's estimators read occupancy limits for
// the parallel optimizers (Equations 6-10). Input is a model name;
// output is a *GPU value. A module's compile-target SM flag selects no
// model: the caller names the GPU it runs on.
//
// The paper evaluates on Volta V100 only, but every consumer reads
// these tables through a *GPU value, so the pipeline is
// architecture-parametric. A constant table (Lookup, All, KeyOf, keyed
// by model name, with SM flags for KeyOf) holds the bundled models —
// VoltaV100, TuringT4, AmpereA100 — and a model is added by appending
// to it; a caller may also pass any *GPU value of its own.
package arch

import (
	"fmt"

	"gpa/internal/apierr"
	"gpa/internal/sass"
)

// GPU describes one GPU model. All simulator- and estimator-visible
// architectural behaviour is a function of these fields; code outside
// this package must not hardcode per-architecture constants.
type GPU struct {
	Name string
	// SM is the architecture flag (70 = Volta, 75 = Turing,
	// 80 = Ampere).
	SM int
	// NumSMs is the number of streaming multiprocessors.
	NumSMs int
	// SchedulersPerSM is the number of warp schedulers per SM (4 on
	// every bundled model).
	SchedulersPerSM int
	WarpSize        int
	// MaxWarpsPerSM bounds resident warps (64 on Volta/Ampere, 32 on
	// Turing).
	MaxWarpsPerSM int
	// MaxThreadsPerBlock is the launch limit (1024).
	MaxThreadsPerBlock int
	// MaxBlocksPerSM bounds resident blocks (32 on Volta/Ampere, 16 on
	// Turing).
	MaxBlocksPerSM int
	// RegistersPerSM is the register file size in 32-bit registers.
	RegistersPerSM int
	// SharedMemPerSM is shared memory per SM in bytes.
	SharedMemPerSM int
	// MSHRsPerSM bounds outstanding global memory transactions per SM;
	// when exhausted, further memory instructions stall with a memory
	// throttle reason.
	MSHRsPerSM int
	// ICacheInstrs is the per-SM instruction cache capacity in
	// instructions; jumps outside the cached window incur instruction
	// fetch stalls.
	ICacheInstrs int

	// Memory latencies in cycles.
	GlobalLatency     int // L2 hit-ish steady state
	GlobalLatencyTLB  int // TLB-miss upper bound (pruning bound)
	SharedLatency     int
	ConstLatency      int // constant cache hit
	ConstMissLatency  int
	LocalLatency      int // local = global space
	AtomicLatency     int
	IFetchMissLatency int

	// Fixed-latency pipeline table: cycles before a dependent
	// instruction may issue.
	ALULatency      int // INT/FP32/misc fixed-latency ops
	IMADWideLatency int // IMAD.WIDE (64-bit result)
	FP64Latency     int
	ConvertLatency  int // F2F/F2I/I2F conversions
	ControlLatency  int // branches, EXIT, BAR

	// Steady-state latencies of variable-latency execution units (the
	// simulator's default completion latencies).
	MUFULatency int
	IDIVLatency int
	S2RLatency  int
	// VarLatencyDefault covers remaining variable-latency ops (SHFL,
	// ...).
	VarLatencyDefault int

	// Pruning upper bounds for variable-latency units (the blamer's
	// latency-based rule).
	MUFULatencyBound int
	S2RLatencyBound  int

	// Issue (dispatch) costs in cycles: how long the issuing pipe is
	// busy per instruction. These model throughput, not latency (e.g.
	// FP64 runs at half rate on V100/A100, 1/32 rate on T4).
	FP64IssueCost    int
	MUFUIssueCost    int
	ConvertIssueCost int
	GlobalIssueCost  int // global/local/generic memory
	SharedIssueCost  int // shared/constant memory

	// Front-end and block-machinery costs charged by the simulator.
	ICacheLineInstrs     int // i-cache line size in instructions
	FetchSerializeCycles int // shared fetch unit occupancy per miss
	BlockLaunchOverhead  int // cycles to rotate a fresh block in
	// UncoalescedPenalty is the serialization cost per extra memory
	// transaction of an uncoalesced access.
	UncoalescedPenalty int
}

// FixedLatency returns the result latency in cycles of a fixed-latency
// instruction: the number of cycles before a dependent instruction may
// issue. Values follow published microbenchmarking (Jia et al. for
// Volta and Turing, Luo et al. for Ampere).
func (g *GPU) FixedLatency(op sass.Opcode, mods sass.ModMask) int {
	switch op.Info().Class {
	case sass.ClassIntFixed:
		if op == sass.OpIMAD && mods.Has(sass.ModWide) {
			return g.IMADWideLatency
		}
		return g.ALULatency
	case sass.ClassFP32Fixed:
		return g.ALULatency
	case sass.ClassFP64:
		return g.FP64Latency
	case sass.ClassConvert:
		return g.ConvertLatency
	case sass.ClassMisc:
		return g.ALULatency
	case sass.ClassControl:
		return g.ControlLatency
	}
	// Variable-latency classes have no fixed latency; callers should
	// use VariableLatencyBound for pruning.
	return 0
}

// VariableLatencyBound returns the upper-bound latency for a
// variable-latency instruction, used by the latency-based pruning rule
// ("we use the TLB miss latency as the upper bound latency of global
// memory instructions").
func (g *GPU) VariableLatencyBound(op sass.Opcode) int {
	switch op.Info().Class {
	case sass.ClassMemGlobal, sass.ClassMemGeneric:
		return g.GlobalLatencyTLB
	case sass.ClassMemLocal:
		return g.GlobalLatencyTLB
	case sass.ClassMemShared:
		return g.SharedLatency * 3
	case sass.ClassMemConst:
		return g.ConstMissLatency
	case sass.ClassMUFU:
		return g.MUFULatencyBound
	}
	if op == sass.OpS2R {
		return g.S2RLatencyBound
	}
	return 0
}

// LatencyBound returns the pruning bound for any opcode: the fixed
// latency for fixed-latency instructions, the upper bound otherwise.
func (g *GPU) LatencyBound(op sass.Opcode, mods sass.ModMask) int {
	if op.Info().VariableLatency {
		return g.VariableLatencyBound(op)
	}
	return g.FixedLatency(op, mods)
}

// IssueCost returns the scheduler dispatch occupancy in cycles for one
// instruction: how long the issuing pipe is busy before another
// instruction of the same class can issue from this scheduler.
func (g *GPU) IssueCost(op sass.Opcode) int {
	switch op.Info().Class {
	case sass.ClassFP64:
		return g.FP64IssueCost
	case sass.ClassMUFU:
		return g.MUFUIssueCost
	case sass.ClassConvert:
		return g.ConvertIssueCost
	case sass.ClassMemGlobal, sass.ClassMemLocal, sass.ClassMemGeneric:
		return g.GlobalIssueCost
	case sass.ClassMemShared, sass.ClassMemConst:
		return g.SharedIssueCost
	}
	return 1
}

// VariableBaseLatency returns the simulator's default completion
// latency for a variable-latency instruction (workloads can override it
// per site).
func (g *GPU) VariableBaseLatency(op sass.Opcode) int {
	switch op.Info().Class {
	case sass.ClassMemGlobal, sass.ClassMemGeneric:
		if op == sass.OpATOM || op == sass.OpRED {
			return g.AtomicLatency
		}
		return g.GlobalLatency
	case sass.ClassMemLocal:
		return g.LocalLatency
	case sass.ClassMemShared:
		return g.SharedLatency
	case sass.ClassMemConst:
		return g.ConstLatency
	case sass.ClassMUFU:
		if op == sass.OpIDIV {
			return g.IDIVLatency
		}
		return g.MUFULatency
	}
	if op == sass.OpS2R {
		return g.S2RLatency
	}
	return g.VarLatencyDefault
}

// Occupancy describes the resident-warp situation of a kernel launch on
// one SM.
type Occupancy struct {
	BlocksPerSM       int
	WarpsPerSM        int
	WarpsPerScheduler int
	// Limiter names the resource that bounds occupancy: "blocks",
	// "threads", "registers", or "shared".
	Limiter string
}

// ComputeOccupancy calculates resident blocks and warps per SM for a
// launch of blockThreads threads per block using regsPerThread registers
// and sharedPerBlock bytes of shared memory.
func (g *GPU) ComputeOccupancy(blockThreads, regsPerThread, sharedPerBlock int) (Occupancy, error) {
	if blockThreads <= 0 || blockThreads > g.MaxThreadsPerBlock {
		return Occupancy{}, fmt.Errorf("arch: %w: block size %d out of range (1-%d)",
			apierr.ErrBadKernel, blockThreads, g.MaxThreadsPerBlock)
	}
	warpsPerBlock := (blockThreads + g.WarpSize - 1) / g.WarpSize
	limit := g.MaxBlocksPerSM
	limiter := "blocks"
	if byWarps := g.MaxWarpsPerSM / warpsPerBlock; byWarps < limit {
		limit, limiter = byWarps, "threads"
	}
	if regsPerThread > 0 {
		regsPerBlock := regsPerThread * warpsPerBlock * g.WarpSize
		if byRegs := g.RegistersPerSM / regsPerBlock; byRegs < limit {
			limit, limiter = byRegs, "registers"
		}
	}
	if sharedPerBlock > 0 {
		if byShared := g.SharedMemPerSM / sharedPerBlock; byShared < limit {
			limit, limiter = byShared, "shared"
		}
	}
	if limit == 0 {
		return Occupancy{}, fmt.Errorf("arch: %w: kernel cannot fit a single block per SM", apierr.ErrBadKernel)
	}
	warps := limit * warpsPerBlock
	return Occupancy{
		BlocksPerSM:       limit,
		WarpsPerSM:        warps,
		WarpsPerScheduler: (warps + g.SchedulersPerSM - 1) / g.SchedulersPerSM,
		Limiter:           limiter,
	}, nil
}
