package gpusim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	"gpa/internal/apierr"
	"gpa/internal/arch"
	"gpa/internal/sass"
)

// tailLoadSrc issues a final load whose result is never consumed before
// EXIT, so warps exit with MSHR releases still pending. This is the
// shape that distinguishes the event-skip loop from a cycle stepper: a
// completed SM must finish one cycle after its final issue, never at a
// stale release event.
const tailLoadSrc = `
.func tailload global
	MOV R0, 0x0 {S:2}
LOOP:
	LDG.E.32 R4, [R2] {S:1, W:0}
	IADD R5, R4, 0x1 {S:4, Q:0}
	IADD R0, R0, 0x1 {S:4}
	ISETP P0, R0, 0x8 {S:4}
BR0:	@P0 BRA LOOP {S:5}
	LDG.E.32 R6, [R3] {S:1, W:1}
	EXIT
`

// eventOracleCases are the kernel shapes the skip-vs-stepper oracle
// runs: memory pressure, barrier imbalance, multi-wave block rotation,
// and exit-with-pending-loads.
func eventOracleCases() []struct {
	name   string
	src    string
	launch LaunchConfig
	spec   *Spec
} {
	return []struct {
		name   string
		src    string
		launch LaunchConfig
		spec   *Spec
	}{
		{
			name:   "membound",
			src:    memBoundSrc,
			launch: LaunchConfig{Entry: "membound", Grid: Dim(16), Block: Dim(256), RegsPerThread: 16},
			spec:   &Spec{Trips: map[Site]TripFunc{{"membound", "BR0"}: UniformTrips(40)}},
		},
		{
			name:   "syncy",
			src:    syncSrc,
			launch: LaunchConfig{Entry: "syncy", Grid: Dim(8), Block: Dim(256), RegsPerThread: 16},
			spec: &Spec{Trips: map[Site]TripFunc{{"syncy", "BR0"}: func(w WarpCtx) int {
				if w.WarpInBlock%2 == 1 {
					return 90
				}
				return 30
			}}},
		},
		{
			name: "waves",
			src:  memBoundSrc,
			launch: LaunchConfig{Entry: "membound", Grid: Dim(24), Block: Dim(512),
				RegsPerThread: 16, SharedMemPerBlock: 32 * 1024},
			spec: &Spec{
				Trips:        map[Site]TripFunc{{"membound", "BR0"}: UniformTrips(20)},
				Transactions: map[Site]int{{"membound", "LOOP"}: 8},
			},
		},
		{
			name:   "tailload",
			src:    tailLoadSrc,
			launch: LaunchConfig{Entry: "tailload", Grid: Dim(12), Block: Dim(256), RegsPerThread: 16},
			spec: &Spec{
				Trips:        map[Site]TripFunc{{"tailload", "BR0"}: UniformTrips(7)},
				Transactions: map[Site]int{{"tailload", "LOOP"}: 16},
			},
		},
	}
}

// TestEventSkipMatchesCycleStepper pins the determinism contract of the
// event-driven run loop: on every registered architecture, at
// sequential and concurrent SM parallelism, the skip loop must produce
// bit-identical results and sample streams to the retained naive
// cycle-by-cycle stepper (Config.stepEveryCycle).
func TestEventSkipMatchesCycleStepper(t *testing.T) {
	for _, g := range arch.All() {
		for _, tc := range eventOracleCases() {
			t.Run(arch.KeyOf(g)+"/"+tc.name, func(t *testing.T) {
				m := sass.MustAssemble(tc.src)
				p, err := Load(m)
				if err != nil {
					t.Fatal(err)
				}
				wl, err := tc.spec.Bind(p)
				if err != nil {
					t.Fatal(err)
				}
				run := func(step bool, parallelism int) (*Result, []Sample) {
					t.Helper()
					sink := &captureSink{}
					gc := *g
					gc.NumSMs = 4 // spread blocks over all simulated SMs
					res, err := Run(context.Background(), p, tc.launch, wl, Config{
						GPU: &gc, SimSMs: 4, SamplePeriod: 32, Sink: sink,
						Seed: 7, Parallelism: parallelism, stepEveryCycle: step,
					})
					if err != nil {
						t.Fatal(err)
					}
					return res, sink.samples
				}
				stepRes, stepSamples := run(true, 1)
				stepRes = zeroFFCounters(stepRes)
				for _, par := range []int{1, 4} {
					skipRes, skipSamples := run(false, par)
					// syncy locks a period and fast-forwards under sampling.
					if !reflect.DeepEqual(stepRes, zeroFFCounters(skipRes)) {
						t.Errorf("parallelism %d: result differs from cycle stepper:\nstep: %+v\nskip: %+v",
							par, stepRes, skipRes)
					}
					if len(stepSamples) != len(skipSamples) {
						t.Fatalf("parallelism %d: sample counts differ: step=%d skip=%d",
							par, len(stepSamples), len(skipSamples))
					}
					for i := range stepSamples {
						if stepSamples[i] != skipSamples[i] {
							t.Fatalf("parallelism %d: sample %d differs:\nstep: %+v\nskip: %+v",
								par, i, stepSamples[i], skipSamples[i])
						}
					}
				}
			})
		}
	}
}

// emptyPools empties the package's pools: a sync.Pool survives one
// collection in its victim cache and not two.
func emptyPools() {
	runtime.GC()
	runtime.GC()
}

// mallocsOf counts the heap objects f allocates.
func mallocsOf(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestRunReusesPooledState pins the package-wide arena: once any
// program has run (and its Result was recycled), further runs must not
// allocate on the hot path — on that program, on one that has never
// run, sequential or fanned out, where the arena holds one SM shell per
// worker however many SMs the run simulates.
func TestRunReusesPooledState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector (its runtime allocates inside the measured window)")
	}
	m := sass.MustAssemble(memBoundSrc)
	p, err := Load(m)
	if err != nil {
		t.Fatal(err)
	}
	spec := &Spec{Trips: map[Site]TripFunc{{"membound", "BR0"}: UniformTrips(30)}}
	wl, err := spec.Bind(p)
	if err != nil {
		t.Fatal(err)
	}
	launch := LaunchConfig{Entry: "membound", Grid: Dim(4), Block: Dim(256), RegsPerThread: 16}
	cfg := Config{GPU: arch.VoltaV100(), SimSMs: 2, Seed: 3, Parallelism: 1}
	ctx := context.Background()
	do := func() {
		res, err := Run(ctx, p, launch, wl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		p.Recycle(res)
	}
	do() // warm the arena and result pools
	// A GC between runs would drop the sync.Pool contents and make the
	// measurement flaky; disable it for the measured window.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	avg := testing.AllocsPerRun(10, do)
	if avg > 0.5 {
		t.Errorf("warm gpusim.Run allocates %.1f objects/op, want ~0", avg)
	}

	// A program that has never run takes the arena and the Result the
	// first one left: its first run allocates nothing either. One P, so
	// the Get meets the Put.
	withGOMAXPROCS(t, 1)
	if p, err = Load(m); err != nil {
		t.Fatal(err)
	}
	if wl, err = spec.Bind(p); err != nil {
		t.Fatal(err)
	}
	if n := mallocsOf(do); n != 0 {
		t.Errorf("the first gpusim.Run of a new program allocates %d objects, want 0 (the pools are the package's)", n)
	}

	// The fanned-out path: 4 SMs over 2 workers into a sharded sink.
	// AllocsPerRun pins GOMAXPROCS to 1, which would cap the run back to
	// one worker, so this window counts mallocs itself.
	withGOMAXPROCS(t, 2)
	launch.Grid = Dim(8)
	cfg = Config{GPU: arch.VoltaV100(), SimSMs: 4, Seed: 3, Parallelism: 2,
		SamplePeriod: 32, Sink: &shardCapture{t: t}}
	cfg.GPU.NumSMs = 4
	// Seed the emptied pool with an arena the test can inspect
	// afterwards (a sync.Pool is per-P: retry should the goroutine
	// migrate between the Put and Run's Get and leave the seeded arena
	// unused).
	var ar *arena
	for try := 0; try < 10 && (ar == nil || len(ar.workers) == 0); try++ {
		emptyPools()
		ar = &arena{}
		arenaPool.Put(ar)
		do()
	}
	if n := len(ar.workers); n != 2 {
		t.Errorf("a Parallelism 2 run over 4 SMs built %d SM shells, want 2 (one per worker)", n)
	}
	sink := cfg.Sink.(*shardCapture)
	// Per-run counts and their median: a goroutine that migrates
	// between Ps can miss the per-P pools and rebuild an arena once in a
	// while; the pin is on the steady state, where Run itself allocates
	// nothing. One object per run is left to the Go runtime, which
	// allocates a g for a worker goroutine whenever the starting P's
	// free list is dry (exited workers return theirs to the P they
	// finished on).
	mallocs := make([]uint64, 11)
	for i := range mallocs {
		for _, sh := range sink.shards {
			sh.samples = sh.samples[:0]
		}
		mallocs[i] = mallocsOf(do)
	}
	slices.Sort(mallocs)
	if median := mallocs[len(mallocs)/2]; median > 1 {
		t.Errorf("warm fanned-out gpusim.Run allocates %d objects/op (median of %v), want ~0", median, mallocs)
	}
}

// TestArenaReuseRecorded: a run's work record says whether its state
// arena came out of the package pool — what gpad sums into poolHits.
// Once the pool is emptied, the first run cannot have reused one, and
// every later run must, whichever program ran before it: the same one,
// another load of its module that has never run, or a different
// kernel. One P keeps every Get on the pool the last Put filled and
// the collector is off (it may empty a sync.Pool), except under the
// race detector, where sync.Pool drops a share of what is put back.
func TestArenaReuseRecorded(t *testing.T) {
	withGOMAXPROCS(t, 1)
	load := func(src string) *Program {
		p, err := Load(sass.MustAssemble(src))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	mb := load(memBoundSrc)
	runs := []struct {
		p     *Program
		entry string
		want  bool
	}{
		{mb, "membound", false},
		{mb, "membound", true},
		{load(memBoundSrc), "membound", true},
		{load(syncSrc), "syncy", true},
	}
	cfg := Config{GPU: arch.VoltaV100(), SimSMs: 1, Seed: 1, Parallelism: 1}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	emptyPools()
	for i, r := range runs {
		launch := LaunchConfig{Entry: r.entry, Grid: Dim(1), Block: Dim(64), RegsPerThread: 16}
		res, err := Run(context.Background(), r.p, launch, NopWorkload{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.ArenaReused != r.want && !(raceEnabled && r.want) {
			t.Errorf("run %d (%s): ArenaReused = %v, want %v", i, r.entry, res.ArenaReused, r.want)
		}
		r.p.Recycle(res)
	}
}

// TestArenasSharedAcrossPrograms: arenas and Results recycled by one
// program serve another without leaking into what it computes. A long
// program (three kernels in one module, run from the last, so its
// branches sit past the short program's last PC) and a short one
// alternate through the package pools at Parallelism 1 and 2, into an
// ordered and a sharded sink; every Result and sample stream must
// equal the one the same launch gave on an arena fresh from an emptied
// pool.
func TestArenasSharedAcrossPrograms(t *testing.T) {
	withGOMAXPROCS(t, 2)
	type program struct {
		p      *Program
		wl     Workload
		launch LaunchConfig
		g      *arch.GPU
		simSMs int
	}
	load := func(src string, spec *Spec, launch LaunchConfig, numSMs, simSMs int) program {
		p, err := Load(sass.MustAssemble(src))
		if err != nil {
			t.Fatal(err)
		}
		wl, err := spec.Bind(p)
		if err != nil {
			t.Fatal(err)
		}
		g := arch.VoltaV100()
		g.NumSMs = numSMs
		return program{p, wl, launch, g, simSMs}
	}
	long := load(memBoundSrc+syncSrc+longSyncSrc,
		&Spec{Trips: map[Site]TripFunc{{"longsync", "BR0"}: UniformTrips(40)}},
		LaunchConfig{Entry: "longsync", Grid: Dim(24), Block: Dim(512), RegsPerThread: 16, SharedMemPerBlock: 32 * 1024},
		4, 4)
	short := load(tailLoadSrc,
		&Spec{Trips: map[Site]TripFunc{{"tailload", "BR0"}: UniformTrips(5)}},
		LaunchConfig{Entry: "tailload", Grid: Dim(3), Block: Dim(64), RegsPerThread: 16},
		80, 2)
	if len(long.p.Instrs) <= len(short.p.Instrs) {
		t.Fatalf("long program has %d instructions, short %d", len(long.p.Instrs), len(short.p.Instrs))
	}

	type outcome struct {
		res     Result
		samples [][]Sample // per SM for a sharded sink, one stream otherwise
	}
	run := func(pr program, parallelism int, sharded bool) outcome {
		t.Helper()
		var sink SampleSink = &captureSink{}
		if sharded {
			sink = &shardCapture{t: t}
		}
		res, err := Run(context.Background(), pr.p, pr.launch, pr.wl, Config{
			GPU: pr.g, SimSMs: pr.simSMs, SamplePeriod: 16, Sink: sink, Seed: 5, Parallelism: parallelism,
		})
		if err != nil {
			t.Fatal(err)
		}
		out := outcome{res: *res}
		out.res.IssuedPerPC = slices.Clone(res.IssuedPerPC)
		pr.p.Recycle(res)
		if sharded {
			for _, sh := range sink.(*shardCapture).shards {
				out.samples = append(out.samples, sh.samples)
			}
		} else {
			out.samples = [][]Sample{sink.(*captureSink).samples}
		}
		return out
	}
	for _, parallelism := range []int{1, 2} {
		for _, sharded := range []bool{false, true} {
			t.Run(fmt.Sprintf("P%d/sharded=%v", parallelism, sharded), func(t *testing.T) {
				var want [2]outcome
				for i, pr := range []program{long, short} {
					emptyPools()
					want[i] = run(pr, parallelism, sharded)
					if want[i].res.ArenaReused {
						t.Fatalf("reference run %d reused an arena from an emptied pool", i)
					}
				}
				defer debug.SetGCPercent(debug.SetGCPercent(-1))
				reused := 0
				for round := 0; round < 4; round++ {
					for i, pr := range []program{long, short} {
						got := run(pr, parallelism, sharded)
						if got.res.ArenaReused {
							reused++
						}
						got.res.ArenaReused = false
						if !reflect.DeepEqual(got.res, want[i].res) {
							t.Errorf("round %d program %d: Result on a shared arena\n%+v\nwant (fresh arena)\n%+v", round, i, got.res, want[i].res)
						}
						if !reflect.DeepEqual(got.samples, want[i].samples) {
							t.Errorf("round %d program %d: sample streams on a shared arena differ from a fresh arena's", round, i)
						}
					}
				}
				// Most runs must have shared an arena, or the test proves
				// nothing (a goroutine that migrates between Ps can miss
				// one now and then; under the race detector sync.Pool
				// drops a share on purpose).
				if reused < 4 && !raceEnabled {
					t.Errorf("%d of 8 runs reused an arena, want most", reused)
				}
			})
		}
	}
}

// TestNegativeLaunchDimensions pins the Dim3 validation: negative grid
// or block components must fail with ErrBadKernel instead of being
// silently treated as 1, and so must grid components past CUDA's limits
// (x 2^31-1, y and z 65535), before anything is simulated, so
// Dim3.Count never overflows.
func TestNegativeLaunchDimensions(t *testing.T) {
	m := sass.MustAssemble(memBoundSrc)
	p, err := Load(m)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{GPU: arch.VoltaV100(), SimSMs: 1, Seed: 1}
	for _, launch := range []LaunchConfig{
		{Entry: "membound", Grid: Dim3{X: -1}, Block: Dim(32)},
		{Entry: "membound", Grid: Dim(1), Block: Dim3{X: 32, Y: -2}},
		{Entry: "membound", Grid: Dim3{X: 2, Z: -7}, Block: Dim(32)},
		{Entry: "membound", Grid: Dim(maxGridX + 1), Block: Dim(32)},
		{Entry: "membound", Grid: Dim3{X: 1, Y: maxGridYZ + 1}, Block: Dim(32)},
		{Entry: "membound", Grid: Dim3{X: 1, Z: maxGridYZ + 1}, Block: Dim(32)},
		{Entry: "membound", Grid: Dim3{X: maxGridX, Y: 1 << 40, Z: 1 << 40}, Block: Dim(32)},
	} {
		_, err := Run(context.Background(), p, launch, nil, cfg)
		if !errors.Is(err, apierr.ErrBadKernel) {
			t.Errorf("Run(grid %+v, block %+v) = %v, want ErrBadKernel", launch.Grid, launch.Block, err)
		}
	}
}

// TestHugeGridHonorsDeadline: the largest grid CUDA allows runs in
// memory independent of its size — an SM's block queue is the
// arithmetic progression it is, not a list — and stops at its
// deadline within one cancellation checkpoint.
func TestHugeGridHonorsDeadline(t *testing.T) {
	p, err := Load(sass.MustAssemble(memBoundSrc))
	if err != nil {
		t.Fatal(err)
	}
	launch := LaunchConfig{Entry: "membound", Grid: Dim(maxGridX), Block: Dim(256), RegsPerThread: 16}
	cfg := Config{GPU: arch.VoltaV100(), Seed: 1, Parallelism: 1}
	const deadline = 300 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	_, err = Run(ctx, p, launch, nil, cfg)
	late := time.Since(start) - deadline
	runtime.ReadMemStats(&after)
	if !errors.Is(err, apierr.ErrCanceled) {
		t.Fatalf("Run(grid x %d) under a %v deadline = %v, want ErrCanceled", maxGridX, deadline, err)
	}
	// A checkpoint is cancelCheckInterval loop iterations: milliseconds,
	// even under the race detector.
	if late > 150*time.Millisecond {
		t.Errorf("Run returned %v after its deadline, want within one checkpoint", late)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Errorf("Run(grid x %d) allocated %d bytes, want < 1 MB", maxGridX, n)
	}
}

// TestCallDepthBounded: a device function that calls itself forever
// fails at maxCallDepth with ErrSimLimit, in a few KB, instead of
// pushing a frame a cycle until MaxCycles (the cap here only keeps an
// unbounded stack's failure quick: 1M cycles of it allocate ~40 MB).
func TestCallDepthBounded(t *testing.T) {
	p, err := Load(sass.MustAssemble(`
.func rec device
	CAL rec {S:1}
	RET
.func k global
	CAL rec
	EXIT
`))
	if err != nil {
		t.Fatal(err)
	}
	launch := LaunchConfig{Entry: "k", Grid: Dim(1), Block: Dim(32), RegsPerThread: 16}
	cfg := Config{GPU: arch.VoltaV100(), SimSMs: 1, Seed: 1, Parallelism: 1, MaxCycles: 1_000_000}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = Run(context.Background(), p, launch, nil, cfg)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, apierr.ErrSimLimit) || !strings.Contains(err.Error(), "call depth") {
		t.Fatalf("unbounded recursion = %v, want ErrSimLimit at the call depth bound", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 4<<20 {
		t.Errorf("unbounded recursion allocated %d bytes, want < 4 MB", n)
	}
}

// TestEffectiveParallelism pins the GOMAXPROCS cap.
func TestEffectiveParallelism(t *testing.T) {
	mp := runtime.GOMAXPROCS(0)
	cases := []struct{ req, simSMs, want int }{
		{0, 64, min(mp, 64)},
		{1, 64, 1},
		{mp + 7, 64, min(mp, 64)}, // capped: more goroutines than cores is pure overhead
		{2, 1, 1},                 // bounded by the SM count
	}
	for _, c := range cases {
		if got := effectiveParallelism(c.req, c.simSMs); got != c.want {
			t.Errorf("effectiveParallelism(%d, %d) = %d, want %d", c.req, c.simSMs, got, c.want)
		}
	}
}
