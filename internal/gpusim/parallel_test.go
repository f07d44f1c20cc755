package gpusim

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"gpa/internal/apierr"
	"gpa/internal/arch"
	"gpa/internal/sass"
)

// shardCapture is a ShardedSink keeping each SM's stream in a capture
// of its own; joined in SM order the shards must reproduce the stream
// an ordered sink sees.
type shardCapture struct {
	t      *testing.T
	shards []*captureSink
}

func (c *shardCapture) Record(Sample) {
	c.t.Error("Run called Record on a ShardedSink instead of its shards")
}

func (c *shardCapture) Shard(sm int) SampleSink {
	for sm >= len(c.shards) {
		c.shards = append(c.shards, &captureSink{})
	}
	return c.shards[sm]
}

func (c *shardCapture) joined() []Sample {
	var all []Sample
	for _, sh := range c.shards {
		all = append(all, sh.samples...)
	}
	return all
}

// withGOMAXPROCS raises GOMAXPROCS for one test so Parallelism levels
// above the container's core count are not capped away.
func withGOMAXPROCS(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestParallelMatchesSequential: Run with Parallelism 1 and N must
// produce identical Result fields and identical ordered sample streams
// for the same seed, across kernels exercising memory, synchronization,
// and multi-wave block rotation — and a sharded sink's per-SM streams,
// joined in SM order, must be that same stream at every level.
func TestParallelMatchesSequential(t *testing.T) {
	withGOMAXPROCS(t, 4)
	cases := []struct {
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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := sass.MustAssemble(tc.src)
			p, err := Load(m)
			if err != nil {
				t.Fatal(err)
			}
			wl, err := tc.spec.Bind(p)
			if err != nil {
				t.Fatal(err)
			}
			runSink := func(sink SampleSink, parallelism int) *Result {
				t.Helper()
				g := arch.VoltaV100()
				g.NumSMs = 4 // spread blocks over all simulated SMs
				res, err := Run(context.Background(), p, tc.launch, wl, Config{
					GPU: g, SimSMs: 4, SamplePeriod: 32, Sink: sink,
					Seed: 7, Parallelism: parallelism,
				})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			run := func(parallelism int) (*Result, []Sample) {
				sink := &captureSink{}
				return runSink(sink, parallelism), sink.samples
			}
			runSharded := func(parallelism int) (*Result, []Sample) {
				sink := &shardCapture{t: t}
				return runSink(sink, parallelism), sink.joined()
			}
			seqRes, seqSamples := run(1)
			check := func(name string, par int, parRes *Result, parSamples []Sample) {
				t.Helper()
				if !sameRun(seqRes, parRes) {
					t.Errorf("%s Parallelism=%d result differs:\nseq: %+v\npar: %+v", name, par, seqRes, parRes)
				}
				if len(seqSamples) != len(parSamples) {
					t.Fatalf("%s Parallelism=%d sample counts differ: %d vs %d",
						name, par, len(seqSamples), len(parSamples))
				}
				for i := range seqSamples {
					if seqSamples[i] != parSamples[i] {
						t.Fatalf("%s Parallelism=%d sample %d differs: %+v vs %+v",
							name, par, i, seqSamples[i], parSamples[i])
					}
				}
			}
			for _, par := range []int{2, 4, 8} {
				parRes, parSamples := run(par)
				check("ordered", par, parRes, parSamples)
			}
			for _, par := range []int{1, 2, 4} {
				parRes, parSamples := runSharded(par)
				check("sharded", par, parRes, parSamples)
			}
		})
	}
}

// TestParallelErrorMatchesSequential: an erroring SM must surface the
// same error regardless of parallelism (the first failing SM in order).
func TestParallelErrorMatchesSequential(t *testing.T) {
	// An infinite loop trips the MaxCycles livelock guard.
	src := `
.func spin global
LOOP:
	IADD R0, R0, 0x1 {S:4}
BR0:	BRA LOOP {S:5}
	EXIT
`
	m := sass.MustAssemble(src)
	p, err := Load(m)
	if err != nil {
		t.Fatal(err)
	}
	launch := LaunchConfig{Entry: "spin", Grid: Dim(8), Block: Dim(64), RegsPerThread: 16}
	run := func(parallelism int) error {
		g := arch.VoltaV100()
		g.NumSMs = 4
		_, err := Run(context.Background(), p, launch, NopWorkload{}, Config{
			GPU: g, SimSMs: 4, MaxCycles: 10_000, Seed: 1, Parallelism: parallelism,
		})
		return err
	}
	seqErr := run(1)
	if seqErr == nil {
		t.Fatal("expected livelock error")
	}
	for _, par := range []int{2, 4} {
		parErr := run(par)
		if parErr == nil || parErr.Error() != seqErr.Error() {
			t.Errorf("Parallelism=%d error = %v, want %v", par, parErr, seqErr)
		}
	}
}

// TestParallelFailureMatchesSequential: when some SMs fail, every
// parallelism level returns the lowest failing SM's error and has
// delivered the same stream to an ordered sink — the SMs before it in
// full, its own partial stream, nothing after — as running the SMs in
// order does.
func TestParallelFailureMatchesSequential(t *testing.T) {
	withGOMAXPROCS(t, 4)
	m := sass.MustAssemble(memBoundSrc)
	p, err := Load(m)
	if err != nil {
		t.Fatal(err)
	}
	// SMs 1 and 3 loop past MaxCycles; SMs 0 and 2 finish early.
	spec := &Spec{Trips: map[Site]TripFunc{{"membound", "BR0"}: func(w WarpCtx) int {
		if w.SM%2 == 1 {
			return 1 << 20
		}
		return 10
	}}}
	wl, err := spec.Bind(p)
	if err != nil {
		t.Fatal(err)
	}
	launch := LaunchConfig{Entry: "membound", Grid: Dim(8), Block: Dim(128), RegsPerThread: 16}
	run := func(parallelism int) ([]Sample, error) {
		sink := &captureSink{}
		g := arch.VoltaV100()
		g.NumSMs = 4
		_, err := Run(context.Background(), p, launch, wl, Config{
			GPU: g, SimSMs: 4, SamplePeriod: 32, Sink: sink, MaxCycles: 20_000,
			Seed: 5, Parallelism: parallelism,
		})
		return sink.samples, err
	}
	seqSamples, seqErr := run(1)
	if !errors.Is(seqErr, apierr.ErrSimLimit) || !strings.Contains(seqErr.Error(), "SM 1 ") {
		t.Fatalf("sequential error = %v, want ErrSimLimit from SM 1", seqErr)
	}
	if n := len(seqSamples); n == 0 || seqSamples[n-1].SM != 1 {
		t.Fatalf("sequential stream must end inside SM 1's partial stream (%d samples)", n)
	}
	for _, par := range []int{2, 4} {
		parSamples, parErr := run(par)
		if parErr == nil || parErr.Error() != seqErr.Error() {
			t.Errorf("Parallelism=%d error = %v, want %v", par, parErr, seqErr)
		}
		if !reflect.DeepEqual(parSamples, seqSamples) {
			t.Errorf("Parallelism=%d replayed %d samples, sequential delivered %d (or contents differ)",
				par, len(parSamples), len(seqSamples))
		}
	}
}

// panicWorkload panics the first time SM 2 asks it for a branch
// direction.
type panicWorkload struct{ NopWorkload }

type workloadBug struct{ sm int }

func (panicWorkload) Taken(w WarpCtx, pc, visit int) bool {
	if w.SM == 2 {
		panic(workloadBug{w.SM})
	}
	return visit < 10
}

// TestParallelPanicReraisedOnCaller: a panic inside an SM goroutine
// (the caller's Workload runs there) must not kill the process from a
// goroutine nobody can recover on; Run re-raises the worker's own panic
// value on the goroutine that called it, as sequential mode does by
// construction, and the program's pools stay usable.
func TestParallelPanicReraisedOnCaller(t *testing.T) {
	withGOMAXPROCS(t, 4)
	m := sass.MustAssemble(memBoundSrc)
	p, err := Load(m)
	if err != nil {
		t.Fatal(err)
	}
	launch := LaunchConfig{Entry: "membound", Grid: Dim(8), Block: Dim(128), RegsPerThread: 16}
	run := func(wl Workload, parallelism int) (res *Result, recovered any) {
		defer func() { recovered = recover() }()
		g := arch.VoltaV100()
		g.NumSMs = 4
		res, err := Run(context.Background(), p, launch, wl, Config{
			GPU: g, SimSMs: 4, SamplePeriod: 32, Sink: &shardCapture{t: t},
			Seed: 5, Parallelism: parallelism,
		})
		if err != nil {
			t.Errorf("Parallelism=%d: %v", parallelism, err)
		}
		return res, nil
	}
	for _, par := range []int{1, 2, 4} {
		if _, got := run(panicWorkload{}, par); got != (workloadBug{2}) {
			t.Errorf("Parallelism=%d recovered %#v on the caller, want %#v", par, got, workloadBug{2})
		}
		// The arena the panicking run used went back to the pool; the
		// next run on the same program must be unaffected by it.
		want, _ := run(NopWorkload{}, 1)
		got, recovered := run(NopWorkload{}, par)
		if recovered != nil || !sameRun(got, want) {
			t.Errorf("Parallelism=%d run after a panic: recovered %v, result %+v, want %+v", par, recovered, got, want)
		}
	}
}
