package gpusim

import (
	"context"
	"fmt"
	"runtime"

	"gpa/internal/apierr"
	"gpa/internal/arch"
	"gpa/internal/par"
)

// Dim3 is a CUDA-style launch dimension.
type Dim3 struct{ X, Y, Z int }

// Count returns the total element count (zero components count as one,
// as CUDA's dim3 does). Negative components are invalid; Run rejects
// them with ErrBadKernel before Count is consulted.
func (d Dim3) Count() int {
	c := 1
	for _, v := range []int{d.X, d.Y, d.Z} {
		if v > 1 {
			c *= v
		}
	}
	return c
}

// valid reports whether every component is non-negative.
func (d Dim3) valid() bool { return d.X >= 0 && d.Y >= 0 && d.Z >= 0 }

// Dim returns a 1-D Dim3.
func Dim(x int) Dim3 { return Dim3{X: x} }

// LaunchConfig describes one kernel launch.
type LaunchConfig struct {
	Entry string
	Grid  Dim3
	Block Dim3
	// RegsPerThread and SharedMemPerBlock feed the occupancy calculator.
	RegsPerThread     int
	SharedMemPerBlock int
}

// Config controls a simulation run.
type Config struct {
	GPU *arch.GPU
	// SimSMs bounds how many SMs are simulated in detail; the remaining
	// SMs are assumed to behave like the simulated ones (the paper makes
	// the same homogeneity assumption when extrapolating per-SM samples
	// to the kernel). 0 means 4.
	SimSMs int
	// SamplePeriod is the PC sampling period in cycles (0 disables
	// sampling).
	SamplePeriod int
	// Sink receives samples when sampling is enabled.
	Sink SampleSink
	// Seed perturbs the deterministic memory-latency jitter.
	Seed uint64
	// MaxCycles aborts runaway simulations (0 means 50M).
	MaxCycles int64
	// Parallelism bounds how many SMs are simulated concurrently
	// (0 means GOMAXPROCS; values above GOMAXPROCS are capped to it —
	// spawning more SM goroutines than cores only adds scheduling and
	// buffering overhead). Each SM is independent, so results and the
	// ordered sample stream delivered to Sink are identical for every
	// parallelism level. With Parallelism > 1 the Workload must be safe
	// for concurrent use: Spec binding is read-only, but the callback
	// closures a spec carries are invoked concurrently too and must not
	// mutate shared state. Set 1 for the single-goroutine contract.
	Parallelism int

	// stepEveryCycle is a test hook: it disables the event-driven cycle
	// skip and the wake gates, advancing one cycle at a time and
	// re-evaluating every warp from its raw state each cycle. It exists
	// as the oracle the event-skip loop is checked against (results must
	// be bit-identical) and is deliberately unexported.
	stepEveryCycle bool
}

// Result summarizes one simulated launch.
type Result struct {
	// Cycles is the kernel duration: the completion cycle of the
	// busiest simulated SM.
	Cycles int64
	// IssuedPerPC counts issued instructions per flat PC across
	// simulated SMs.
	IssuedPerPC []int64
	// TotalIssued is the sum of IssuedPerPC.
	TotalIssued int64
	// Occupancy echoes the launch occupancy.
	Occupancy arch.Occupancy
	// WarpsPerScheduler is the EFFECTIVE resident warp count per
	// scheduler: the occupancy capacity capped by what the grid
	// actually supplies per SM. This is the W of the paper's Equations
	// 6-9.
	WarpsPerScheduler int
	// ActiveSMs is how many SMs had at least one block.
	ActiveSMs int
	// SimulatedSMs is how many SMs were simulated in detail.
	SimulatedSMs int
	// BlocksLaunched is the grid block count.
	BlocksLaunched int
	// ThreadsPerBlock echoes the launch config.
	ThreadsPerBlock int

	// PeriodsDetected counts steady-state period templates the loop
	// memoizer locked onto across simulated SMs (see steady.go).
	// The memoizer never changes results: Cycles, IssuedPerPC, and the
	// sample stream are bit-identical with or without fast-forwarding.
	PeriodsDetected int64
	// CyclesFastForwarded counts SM-cycles skipped analytically instead
	// of stepped (summed over simulated SMs).
	CyclesFastForwarded int64
	// FastForwardFallbacks counts abandoned period candidates and
	// zero-length fast-forward attempts that fell back to normal
	// event-skipped stepping.
	FastForwardFallbacks int64
	// LoopIterations and ReadyCalls are the run's deterministic work
	// record, summed over simulated SMs: run-loop iterations (cycles
	// the simulator visited instead of skipping) and full readiness
	// evaluations (sm.ready: one per sample taken and per entry of a
	// recorded observation table; the event-driven scan makes none).
	// Like the fast-forward counters they describe how the result was
	// computed, never what it is, and repeat exactly for a given input
	// at every parallelism level — WORK.txt pins them per Table 3 row.
	LoopIterations int64
	ReadyCalls     int64
}

// Run simulates a kernel launch to completion. The context is honored
// promptly: the run loop polls it at an amortized checkpoint (every
// cancelCheckInterval loop iterations), so a canceled ctx returns an
// error wrapping both ErrCanceled and ctx.Err() within one checkpoint
// interval. Cancellation never alters results: a non-canceled run is
// byte-identical whether or not a cancelable context was supplied.
func Run(ctx context.Context, p *Program, launch LaunchConfig, wl Workload, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.GPU == nil {
		return nil, fmt.Errorf("gpusim: %w: nil GPU config", apierr.ErrBadKernel)
	}
	if wl == nil {
		wl = NopWorkload{}
	}
	entry, err := p.EntryOf(launch.Entry)
	if err != nil {
		return nil, err // tagged ErrBadKernel at origin
	}
	if !launch.Grid.valid() || !launch.Block.valid() {
		return nil, fmt.Errorf("gpusim: %w: negative launch dimension (grid %+v, block %+v)",
			apierr.ErrBadKernel, launch.Grid, launch.Block)
	}
	threads := launch.Block.Count()
	occ, err := cfg.GPU.ComputeOccupancy(threads, launch.RegsPerThread, launch.SharedMemPerBlock)
	if err != nil {
		return nil, fmt.Errorf("gpusim: %w: %w", apierr.ErrBadKernel, err)
	}
	blocks := launch.Grid.Count()
	if blocks <= 0 {
		return nil, fmt.Errorf("gpusim: %w: empty grid", apierr.ErrBadKernel)
	}
	if err := apierr.CtxErr(ctx); err != nil {
		return nil, fmt.Errorf("gpusim: %w", err)
	}
	activeSMs := cfg.GPU.NumSMs
	if blocks < activeSMs {
		activeSMs = blocks
	}
	simSMs := cfg.SimSMs
	if simSMs <= 0 {
		simSMs = 4
	}
	if simSMs > activeSMs {
		simSMs = activeSMs
	}
	maxCycles := cfg.MaxCycles
	if maxCycles <= 0 {
		maxCycles = 50_000_000
	}

	res := p.getResult()
	res.Occupancy = occ
	res.ActiveSMs = activeSMs
	res.SimulatedSMs = simSMs
	res.BlocksLaunched = blocks
	res.ThreadsPerBlock = threads
	warpsPerBlock := (threads + cfg.GPU.WarpSize - 1) / cfg.GPU.WarpSize
	residentBlocks := (blocks + cfg.GPU.NumSMs - 1) / cfg.GPU.NumSMs
	if residentBlocks > occ.BlocksPerSM {
		residentBlocks = occ.BlocksPerSM
	}
	res.WarpsPerScheduler = (residentBlocks*warpsPerBlock + cfg.GPU.SchedulersPerSM - 1) /
		cfg.GPU.SchedulersPerSM
	if res.WarpsPerScheduler < 1 {
		res.WarpsPerScheduler = 1
	}
	// The arena holds every piece of per-run mutable state (see
	// pool.go); it is recycled when Run returns, on success and error
	// alike — nothing that escapes Run aliases it.
	ar := p.getArena()
	defer p.putArena(ar)
	rt := ar.buildRunTables(p, wl, cfg.GPU)
	parallelism := effectiveParallelism(cfg.Parallelism, simSMs)

	if parallelism <= 1 {
		// Sequential mode: SMs run in order and record straight into the
		// configured sink, all reusing one SM shell.
		ar.grow(1)
		for smID := 0; smID < simSMs; smID++ {
			ar.blocks[0] = blocksForSM(ar.blocks[0], smID, blocks, cfg.GPU.NumSMs)
			if len(ar.blocks[0]) == 0 {
				continue
			}
			sm := newSM(ar.sms[0], smID, p, rt, wl, cfg, launch, occ, entry, ar.blocks[0], warpsPerBlock, cfg.Sink)
			cycles, err := sm.run(ctx, maxCycles)
			if err != nil {
				return nil, err
			}
			mergeSM(res, cycles, sm.issuedPerPC, sm.work())
		}
		return res, nil
	}

	// Parallel mode: fan SMs out over a bounded worker pool. Each SM
	// records into a private buffered sink; after the join the buffers
	// are drained in SM order, so the stream delivered to cfg.Sink is
	// byte-identical to sequential mode.
	ar.grow(simSMs)
	par.Do(simSMs, parallelism, func(smID int) {
		ar.blocks[smID] = blocksForSM(ar.blocks[smID], smID, blocks, cfg.GPU.NumSMs)
		myBlocks := ar.blocks[smID]
		if len(myBlocks) == 0 {
			return
		}
		out := &ar.outcomes[smID]
		var sink SampleSink
		var buf *sliceSink
		if cfg.Sink != nil {
			buf = &ar.sinks[smID]
			sink = buf
		}
		sm := newSM(ar.sms[smID], smID, p, rt, wl, cfg, launch, occ, entry, myBlocks, warpsPerBlock, sink)
		out.cycles, out.err = sm.run(ctx, maxCycles)
		out.issued = sm.issuedPerPC
		out.work = sm.work()
		if buf != nil {
			out.samples = buf.samples
		}
	})
	for smID := 0; smID < simSMs; smID++ {
		out := &ar.outcomes[smID]
		// Replay the SM's stream before checking its error: a failing
		// SM records its partial stream in sequential mode too, and SMs
		// after the first failure are dropped entirely, exactly as if
		// they had never run.
		if cfg.Sink != nil {
			for _, s := range out.samples {
				cfg.Sink.Record(s)
			}
		}
		if out.err != nil {
			// Matches sequential mode, which fails on the first SM in
			// order that errors.
			return nil, out.err
		}
		if out.issued != nil {
			mergeSM(res, out.cycles, out.issued, out.work)
		}
	}
	return res, nil
}

// effectiveParallelism resolves Config.Parallelism: 0 means GOMAXPROCS,
// anything above GOMAXPROCS is capped to it (more SM goroutines than
// cores pay fan-out and buffering overhead for no concurrency — BENCH_1
// and BENCH_2 measured parallel mode slower than sequential on one
// CPU), and the SM count bounds it from above. Results are identical at
// every level, so the cap never changes output.
func effectiveParallelism(requested, simSMs int) int {
	p := requested
	if mp := runtime.GOMAXPROCS(0); p <= 0 || p > mp {
		p = mp
	}
	if p > simSMs {
		p = simSMs
	}
	return p
}

// blocksForSM lists the grid blocks SM smID executes — blocks smID,
// smID+NumSMs, smID+2*NumSMs, ... — appending into buf's backing
// storage.
func blocksForSM(buf []int, smID, blocks, numSMs int) []int {
	out := buf[:0]
	for b := smID; b < blocks; b += numSMs {
		out = append(out, b)
	}
	return out
}

// smWork is one SM's share of the Result's fast-forward and work
// counters.
type smWork struct {
	detected, ffCycles, fallbacks int64
	loopIters, readyCalls         int64
}

func (s *sm) work() smWork {
	st := &s.steady
	return smWork{st.detected, st.ffCycles, st.fallbacks, s.loopIters, s.readyCalls}
}

// mergeSM folds one SM's completion cycle, issue counts, and work
// counters into the kernel result (order-independent: sums and a max).
func mergeSM(res *Result, cycles int64, issuedPerPC []int64, w smWork) {
	if cycles > res.Cycles {
		res.Cycles = cycles
	}
	for pc, n := range issuedPerPC {
		res.IssuedPerPC[pc] += n
		res.TotalIssued += n
	}
	res.PeriodsDetected += w.detected
	res.CyclesFastForwarded += w.ffCycles
	res.FastForwardFallbacks += w.fallbacks
	res.LoopIterations += w.loopIters
	res.ReadyCalls += w.readyCalls
	ffPeriods.Add(w.detected)
	ffCycles.Add(w.ffCycles)
	ffFallbacks.Add(w.fallbacks)
}

// sliceSink buffers one SM's samples for in-order replay after a
// parallel run joins.
type sliceSink struct{ samples []Sample }

func (b *sliceSink) Record(s Sample) { b.samples = append(b.samples, s) }
