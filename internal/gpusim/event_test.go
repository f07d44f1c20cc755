package gpusim

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

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

// TestRunReusesPooledState pins the per-program arena: once a program
// has run (and its Result was recycled), further runs must not allocate
// on the hot path — sequential or fanned out, where the arena holds one
// SM shell per worker however many SMs the run simulates.
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

	// The fanned-out path: 4 SMs over 2 workers into a sharded sink.
	// AllocsPerRun pins GOMAXPROCS to 1, which would cap the run back to
	// one worker, so this window counts mallocs itself.
	withGOMAXPROCS(t, 2)
	if p, err = Load(m); err != nil { // a program whose pools are still empty
		t.Fatal(err)
	}
	if wl, err = spec.Bind(p); err != nil {
		t.Fatal(err)
	}
	launch.Grid = Dim(8)
	cfg = Config{GPU: arch.VoltaV100(), SimSMs: 4, Seed: 3, Parallelism: 2,
		SamplePeriod: 32, Sink: &shardCapture{t: t}}
	cfg.GPU.NumSMs = 4
	// Seed the pool with an arena the test can inspect afterwards (a
	// sync.Pool is per-P: retry should the goroutine migrate between
	// the Put and Run's Get and leave the seeded arena unused).
	var ar *arena
	for try := 0; try < 10 && (ar == nil || len(ar.workers) == 0); try++ {
		ar = &arena{}
		p.putArena(ar)
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
	var before, after runtime.MemStats
	mallocs := make([]uint64, 11)
	for i := range mallocs {
		for _, sh := range sink.shards {
			sh.samples = sh.samples[:0]
		}
		runtime.ReadMemStats(&before)
		do()
		runtime.ReadMemStats(&after)
		mallocs[i] = after.Mallocs - before.Mallocs
	}
	slices.Sort(mallocs)
	if median := mallocs[len(mallocs)/2]; median > 1 {
		t.Errorf("warm fanned-out gpusim.Run allocates %d objects/op (median of %v), want ~0", median, mallocs)
	}
}

// TestArenaReuseRecorded: a run's work record says whether its state
// arena came out of the program's pool — what gpad sums into poolHits.
// The first run on a program cannot have reused one; with the collector
// off (it may empty a sync.Pool) the next two must, except under the
// race detector, where sync.Pool drops a share of what is put back.
func TestArenaReuseRecorded(t *testing.T) {
	m := sass.MustAssemble(memBoundSrc)
	p, err := Load(m)
	if err != nil {
		t.Fatal(err)
	}
	launch := LaunchConfig{Entry: "membound", Grid: Dim(1), Block: Dim(64), RegsPerThread: 16}
	cfg := Config{GPU: arch.VoltaV100(), SimSMs: 1, Seed: 1, Parallelism: 1}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i, want := range []bool{false, true, true} {
		res, err := Run(context.Background(), p, launch, NopWorkload{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.ArenaReused != want && !(raceEnabled && want) {
			t.Errorf("run %d: ArenaReused = %v, want %v", i, res.ArenaReused, want)
		}
		p.Recycle(res)
	}
}

// TestNegativeLaunchDimensions pins the Dim3 validation: negative grid
// or block components must fail with ErrBadKernel instead of being
// silently treated as 1.
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
	} {
		_, err := Run(context.Background(), p, launch, nil, cfg)
		if !errors.Is(err, apierr.ErrBadKernel) {
			t.Errorf("Run(grid %+v, block %+v) = %v, want ErrBadKernel", launch.Grid, launch.Block, err)
		}
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
