package gpusim

import (
	"context"
	"fmt"
	"runtime"

	"gpa/internal/apierr"
	"gpa/internal/arch"
)

// Dim3 is a CUDA-style launch dimension.
type Dim3 struct{ X, Y, Z int }

// Count returns the total element count (zero components count as one,
// as CUDA's dim3 does). Negative components are invalid, and so are
// grid components past CUDA's limits; Run rejects both with
// ErrBadKernel before Count is consulted, and within those limits a
// grid's Count fits an int.
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

// CUDA's grid dimension limits.
const maxGridX, maxGridYZ = 1<<31 - 1, 65535

// withinGridLimits reports whether no component exceeds CUDA's grid
// limits.
func (d Dim3) withinGridLimits() bool {
	return d.X <= maxGridX && d.Y <= maxGridYZ && d.Z <= maxGridYZ
}

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
	// Sink receives samples when sampling is enabled: in SM order on
	// one goroutine (a run into a plain sink simulates its SMs on one
	// worker), or — if it implements ShardedSink — each SM's stream
	// into a shard of its own (see SampleSink).
	Sink SampleSink
	// Seed perturbs the deterministic memory-latency jitter.
	Seed uint64
	// Parallelism bounds how many SMs are simulated concurrently
	// (0 means GOMAXPROCS; values above GOMAXPROCS are capped to it —
	// spawning more SM goroutines than cores only adds scheduling
	// overhead; a plain Sink caps it to 1). Each SM is independent, so
	// results and the samples delivered to Sink are identical for every
	// parallelism level. A panic in the Workload is re-raised on the
	// goroutine that called Run at every level. With Parallelism > 1
	// the Workload must be safe for concurrent use: Spec binding is
	// read-only, but the TripFuncs a spec carries are invoked
	// concurrently too and must not mutate shared state. Set 1 for the
	// single-goroutine contract.
	Parallelism int

	// stepEveryCycle is a test hook: it disables the event-driven cycle
	// skip and the wake gates, advancing one cycle at a time and
	// re-evaluating every warp from its raw state each cycle. It exists
	// as the oracle the event-skip loop is checked against (results must
	// be bit-identical) and is deliberately unexported.
	stepEveryCycle bool
	// noSteady is a test hook: it turns off steady-state fast-forward
	// alone, keeping the event skip, so a benchmark can price what
	// fast-forward buys (stepEveryCycle turns off both).
	noSteady bool
	// maxCycles is a test hook: it lowers the cycle cap that aborts a
	// runaway simulation with ErrSimLimit (0 means defaultMaxCycles), so
	// a test of the cap need not simulate 50M cycles.
	maxCycles int64
}

// defaultMaxCycles is the cycle cap past which a run is a livelock.
const defaultMaxCycles = 50_000_000

// Result summarizes one simulated launch.
type Result struct {
	// Cycles is the kernel duration: the completion cycle of the
	// busiest simulated SM.
	Cycles int64
	// IssuedPerPC counts issued instructions per flat PC across
	// simulated SMs.
	IssuedPerPC []int64
	// Occupancy echoes the launch occupancy.
	Occupancy arch.Occupancy
	// WarpsPerScheduler is the EFFECTIVE resident warp count per
	// scheduler: the occupancy capacity capped by what the grid
	// actually supplies per SM. This is the W of the paper's Equations
	// 6-9.
	WarpsPerScheduler int
	// ActiveSMs is how many SMs had at least one block.
	ActiveSMs int
	// BlocksLaunched is the grid block count.
	BlocksLaunched int
	// ThreadsPerBlock echoes the launch config.
	ThreadsPerBlock int

	// Work records how the run computed the result; it never changes
	// what the result is.
	Work
}

// Work is one run's record of the work it did, summed over simulated
// SMs. The memoizer and the event-driven loop never change results:
// Cycles, IssuedPerPC, and the sample stream are bit-identical with or
// without them. Every counter repeats exactly for a given input at
// every parallelism level — WORK.txt pins them per Table 3 row — and
// service.Engine sums the records of the runs it makes for /statsz.
type Work struct {
	// PeriodsDetected counts steady-state period templates the loop
	// memoizer locked onto (see steady.go).
	PeriodsDetected int64
	// CyclesFastForwarded counts SM-cycles skipped analytically instead
	// of stepped.
	CyclesFastForwarded int64
	// FastForwardFallbacks counts abandoned period candidates and
	// zero-length fast-forward attempts that fell back to normal
	// event-skipped stepping.
	FastForwardFallbacks int64
	// LoopIterations counts run-loop iterations (cycles the simulator
	// visited instead of skipping) and ReadyCalls full readiness
	// evaluations (sm.ready: one per sample taken and per entry of a
	// recorded observation table; the event-driven scan makes none).
	LoopIterations int64
	ReadyCalls     int64
	// ArenaReused reports whether the run's state arena came out of the
	// package's pool instead of being allocated (see pool.go). Unlike
	// the counters it depends on what ran before, on any program, not
	// on the input.
	ArenaReused bool
}

// add folds one SM's, or one worker's, counters into w.
func (w *Work) add(o Work) {
	w.PeriodsDetected += o.PeriodsDetected
	w.CyclesFastForwarded += o.CyclesFastForwarded
	w.FastForwardFallbacks += o.FastForwardFallbacks
	w.LoopIterations += o.LoopIterations
	w.ReadyCalls += o.ReadyCalls
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
	if !launch.Grid.withinGridLimits() {
		return nil, fmt.Errorf("gpusim: %w: grid %+v exceeds CUDA's limits (x <= %d, y and z <= %d)",
			apierr.ErrBadKernel, launch.Grid, maxGridX, maxGridYZ)
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
	maxCycles := cfg.maxCycles
	if maxCycles <= 0 {
		maxCycles = defaultMaxCycles
	}

	res := getResult(len(p.Instrs))
	res.Occupancy = occ
	res.ActiveSMs = activeSMs
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
	// pool.go); it is recycled when Run returns — on success, error and
	// panic alike — and nothing that escapes Run aliases it.
	ar, reused := getArena()
	defer arenaPool.Put(ar)
	res.ArenaReused = reused
	workers := effectiveParallelism(cfg.Parallelism, simSMs)
	if _, sharded := cfg.Sink.(ShardedSink); cfg.Sink != nil && !sharded {
		workers = 1 // an ordered sink takes the SMs' streams in order
	}
	ar.job = smJob{
		ctx: ctx, p: p, wl: wl, cfg: cfg, launch: launch, occ: occ, entry: entry,
		blocks: blocks, warpsPerBlock: warpsPerBlock, maxCycles: maxCycles, simSMs: simSMs,
		rt: ar.buildRunTables(p, wl, cfg.GPU),
	}
	ar.resolveSinks(cfg.Sink, simSMs)
	ar.grow(workers, len(p.Instrs))

	// Every worker owns one SM shell and takes SM ids in order from the
	// job's counter (see smWorker.drain). One worker runs on this
	// goroutine, so a panic in the Workload unwinds through Run as is;
	// several run on goroutines of their own, where a panic is recovered
	// and carried to the join.
	if workers == 1 {
		ar.workers[0].drain()
	} else {
		ar.wg.Add(workers)
		for _, w := range ar.workers[:workers] {
			go w.loop()
		}
		ar.wg.Wait()
	}
	// The lowest failing SM id decides, as if the SMs had run in order:
	// ids are handed out in increasing order and never after a failure
	// is flagged, so every SM below it ran to completion.
	var failed *smWorker
	for _, w := range ar.workers[:workers] {
		if w.failSM >= 0 && (failed == nil || w.failSM < failed.failSM) {
			failed = w
		}
	}
	if failed != nil {
		if failed.panicked != nil {
			// Re-raised on the caller's goroutine with the worker's own
			// value, so a recover above Run (the service's flight
			// boundary) sees what sequential mode would have given it.
			panic(failed.panicked)
		}
		return nil, failed.err
	}
	for _, w := range ar.workers[:workers] {
		res.merge(&w.partial)
	}
	return res, nil
}

// smJob is what one Run shares with its workers: the launch, read-only
// while SMs run, and the counter SM ids are taken from.
type smJob struct {
	ctx           context.Context
	p             *Program
	rt            *runTables
	wl            Workload
	cfg           Config
	launch        LaunchConfig
	occ           arch.Occupancy
	entry         int
	blocks        int
	warpsPerBlock int
	maxCycles     int64
	simSMs        int
}

// smWorker simulates SMs one at a time on a shell it owns, folding each
// finished SM into a partial Result of its own, merged after the join
// (sums and a max, so neither the SM-to-worker assignment nor the merge
// order shows in the result).
type smWorker struct {
	ar      *arena
	shell   sm
	partial Result
	// cur is the SM id being simulated; failSM the id whose run failed
	// (-1: none), with its error or the value it panicked with.
	cur      int
	failSM   int
	err      error
	panicked any
	// loop is goDrain as a func value built once per worker, so starting
	// the goroutine allocates nothing on a warm arena.
	loop func()
}

// drain simulates SMs until the ids run out or some worker fails.
func (w *smWorker) drain() {
	ar := w.ar
	j := &ar.job
	for !ar.failed.Load() {
		smID := int(ar.next.Add(1)) - 1
		if smID >= j.simSMs {
			return
		}
		w.cur = smID
		s := newSM(&w.shell, smID, j, ar.sinks[smID])
		cycles, err := s.run(j.ctx, j.maxCycles)
		if err != nil {
			w.fail(err, nil)
			return
		}
		w.partial.addSM(cycles, s.issuedPerPC, s.work())
	}
}

// goDrain is drain on a goroutine of its own: a panic (the caller's
// Workload runs in here) is contained and handed to Run at the join.
func (w *smWorker) goDrain() {
	defer w.ar.wg.Done()
	defer func() {
		if v := recover(); v != nil {
			w.fail(nil, v)
		}
	}()
	w.drain()
}

// fail records the current SM as failed and stops the hand-out of
// further SM ids.
func (w *smWorker) fail(err error, panicked any) {
	w.failSM, w.err, w.panicked = w.cur, err, panicked
	w.ar.failed.Store(true)
}

// effectiveParallelism resolves Config.Parallelism: 0 means GOMAXPROCS,
// anything above GOMAXPROCS is capped to it (more SM goroutines than
// cores pay fan-out and buffering overhead for no concurrency: parallel
// mode measured slower than sequential on one CPU), and the SM count
// bounds it from above. Results are identical at
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

// blocksOnSM counts the grid blocks SM smID executes — blocks smID,
// smID+NumSMs, smID+2*NumSMs, ... below blocks. Every simulated SM
// has one: simSMs never exceeds the block count.
func blocksOnSM(smID, blocks, numSMs int) int {
	return (blocks - smID + numSMs - 1) / numSMs
}

// work is one SM's share of the run's work record.
func (s *sm) work() Work {
	st := &s.steady
	return Work{
		PeriodsDetected: st.detected, CyclesFastForwarded: st.ffCycles, FastForwardFallbacks: st.fallbacks,
		LoopIterations: s.loopIters, ReadyCalls: s.readyCalls,
	}
}

// addSM folds one SM's completion cycle, issue counts, and work
// counters into a result (order-independent: sums and a max).
func (r *Result) addSM(cycles int64, issuedPerPC []int64, w Work) {
	if cycles > r.Cycles {
		r.Cycles = cycles
	}
	for pc, n := range issuedPerPC {
		r.IssuedPerPC[pc] += n
	}
	r.Work.add(w)
}

// merge folds a worker's partial into the run's result.
func (r *Result) merge(part *Result) {
	r.addSM(part.Cycles, part.IssuedPerPC, part.Work)
}
