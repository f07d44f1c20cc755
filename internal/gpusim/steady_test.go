package gpusim

import (
	"context"
	"reflect"
	"testing"

	"gpa/internal/arch"
	"gpa/internal/sass"
)

// steadyOracleCases are the kernel shapes the fast-forward oracle runs.
// The periodic cases are barrier-synchronized loops: the BAR.SYNC
// re-aligns every warp once per iteration, so the whole SM revisits the
// same relative state each period and the memoizer must lock on and
// skip. The aperiodic cases are barrier-free latency-bound loops: each
// warp free-runs with its own (constant, per-warp distinct) memory
// latency, warp phases drift apart forever, and the detector must give
// up and fall back to plain event stepping without perturbing results.
func steadyOracleCases() []struct {
	name         string
	src          string
	launch       LaunchConfig
	spec         *Spec
	samplePeriod int
	wantFF       bool
} {
	return []struct {
		name         string
		src          string
		launch       LaunchConfig
		spec         *Spec
		samplePeriod int
		wantFF       bool
	}{
		{
			// Lockstep barrier loop sampled every cycle: every row of the
			// observation table is read on every skipped period, and the
			// stream must be byte-identical to stepping.
			name:         "lockstep-sampled",
			src:          syncSrc,
			launch:       LaunchConfig{Entry: "syncy", Grid: Dim(4), Block: Dim(256), RegsPerThread: 16},
			spec:         &Spec{Trips: map[Site]TripFunc{{"syncy", "BR0"}: UniformTrips(400)}},
			samplePeriod: 1,
			wantFF:       true,
		},
		{
			// The served sample period against a 17-cycle loop period: a
			// tick lands every few skipped periods, each at a different
			// offset, scheduler and warp.
			name:         "lockstep-sampled-64",
			src:          syncSrc,
			launch:       LaunchConfig{Entry: "syncy", Grid: Dim(4), Block: Dim(256), RegsPerThread: 16},
			spec:         &Spec{Trips: map[Site]TripFunc{{"syncy", "BR0"}: UniformTrips(400)}},
			samplePeriod: 64,
			wantFF:       true,
		},
		{
			// A prime sample period at full-width launch (loop period 32):
			// several ticks per period, and over a long skip they visit
			// every offset of it.
			name:         "lockstep-wide-sampled-7",
			src:          syncSrc,
			launch:       LaunchConfig{Entry: "syncy", Grid: Dim(16), Block: Dim(256), RegsPerThread: 16},
			spec:         &Spec{Trips: map[Site]TripFunc{{"syncy", "BR0"}: UniformTrips(400)}},
			samplePeriod: 7,
			wantFF:       true,
		},
		{
			// Same shape at full-width launch: more blocks per SM, still
			// periodic, bigger skips.
			name:         "lockstep-wide",
			src:          syncSrc,
			launch:       LaunchConfig{Entry: "syncy", Grid: Dim(16), Block: Dim(256), RegsPerThread: 16},
			spec:         &Spec{Trips: map[Site]TripFunc{{"syncy", "BR0"}: UniformTrips(400)}},
			samplePeriod: 1,
			wantFF:       true,
		},
		{
			// Divergent trip counts, sampling off: the run has two steady
			// phases (all warps looping, then only the long-trip warps)
			// with a re-detection in between.
			name:   "divergent-phases",
			src:    syncSrc,
			launch: LaunchConfig{Entry: "syncy", Grid: Dim(8), Block: Dim(256), RegsPerThread: 16},
			spec: &Spec{Trips: map[Site]TripFunc{{"syncy", "BR0"}: func(w WarpCtx) int {
				if w.WarpInBlock%2 == 1 {
					return 900
				}
				return 300
			}}},
			samplePeriod: 0,
			wantFF:       true,
		},
		{
			// Barrier-free memory-bound loop: per-warp latency jitter is
			// constant per warp but distinct across warps, so warp phases
			// drift and no SM-level period exists. The detector must not
			// fire (and must not distort the result trying).
			name:         "membound-aperiodic",
			src:          memBoundSrc,
			launch:       LaunchConfig{Entry: "membound", Grid: Dim(16), Block: Dim(256), RegsPerThread: 16},
			spec:         &Spec{Trips: map[Site]TripFunc{{"membound", "BR0"}: UniformTrips(120)}},
			samplePeriod: 32,
			wantFF:       false,
		},
		{
			// Exit-with-pending-loads shape, also barrier-free.
			name:   "tailload-aperiodic",
			src:    tailLoadSrc,
			launch: LaunchConfig{Entry: "tailload", Grid: Dim(12), Block: Dim(256), RegsPerThread: 16},
			spec: &Spec{
				Trips:        map[Site]TripFunc{{"tailload", "BR0"}: UniformTrips(40)},
				Transactions: map[Site]int{{"tailload", "LOOP"}: 16},
			},
			samplePeriod: 32,
			wantFF:       false,
		},
	}
}

// zeroFFCounters returns a copy of res with its work record cleared.
// The cycle stepper never fast-forwards and visits every cycle, so the
// record is the only part of a Result allowed to differ between the
// stepper oracle and a memoized run.
func zeroFFCounters(res *Result) *Result {
	c := *res
	c.Work = Work{}
	return &c
}

// sameRun reports whether two runs produced one Result, work counters
// included. Where the arena came from is the one field that depends on
// what ran before (and on the collector, which may empty the pool).
func sameRun(a, b *Result) bool {
	x, y := *a, *b
	x.ArenaReused, y.ArenaReused = false, false
	return reflect.DeepEqual(&x, &y)
}

// TestSteadyFastForwardMatchesOracle pins the memoizer's correctness
// contract on every registered architecture: with fast-forward firing
// (periodic cases) or armed but never firing (aperiodic cases), results
// and sample streams must be byte-identical to the retained
// cycle-by-cycle stepper, at sequential and concurrent SM parallelism.
func TestSteadyFastForwardMatchesOracle(t *testing.T) {
	for _, g := range arch.All() {
		for _, tc := range steadyOracleCases() {
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
					gc := *g
					gc.NumSMs = 4
					cfg := Config{
						GPU: &gc, SimSMs: 4, Seed: 7,
						Parallelism: parallelism, stepEveryCycle: step,
					}
					var sink *captureSink
					if tc.samplePeriod > 0 {
						sink = &captureSink{}
						cfg.SamplePeriod = tc.samplePeriod
						cfg.Sink = sink
					}
					res, err := Run(context.Background(), p, tc.launch, wl, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if sink == nil {
						return res, nil
					}
					return res, sink.samples
				}
				stepRes, stepSamples := run(true, 1)
				if stepRes.PeriodsDetected != 0 || stepRes.CyclesFastForwarded != 0 {
					t.Fatalf("cycle stepper fast-forwarded: %+v", stepRes)
				}
				var first *Result
				for _, par := range []int{1, 4} {
					skipRes, skipSamples := run(false, par)
					if tc.wantFF {
						if skipRes.PeriodsDetected == 0 || skipRes.CyclesFastForwarded == 0 {
							t.Errorf("parallelism %d: fast-forward did not fire: detected=%d ffCycles=%d",
								par, skipRes.PeriodsDetected, skipRes.CyclesFastForwarded)
						}
					} else if skipRes.PeriodsDetected != 0 {
						t.Errorf("parallelism %d: aperiodic kernel locked a period: detected=%d ffCycles=%d",
							par, skipRes.PeriodsDetected, skipRes.CyclesFastForwarded)
					}
					// The FF counters themselves must be deterministic
					// across parallelism modes.
					if first == nil {
						first = skipRes
					} else if !sameRun(first, skipRes) {
						t.Errorf("parallelism %d: result differs from parallelism 1:\npar1: %+v\npar%d: %+v",
							par, first, par, skipRes)
					}
					if !reflect.DeepEqual(zeroFFCounters(stepRes), zeroFFCounters(skipRes)) {
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

// longSyncSrc is a barrier-synchronized loop around one load; with the
// load's latency overridden to a couple of thousand cycles the loop
// period times the resident warps outgrows maxObservations.
const longSyncSrc = `
.func longsync global
	MOV R0, 0x0 {S:2}
LOOP:
	LDG.E.32 R4, [R2] {S:1, W:0}
	IADD R5, R4, 0x1 {S:4, Q:0}
	BAR.SYNC {S:2}
	IADD R0, R0, 0x1 {S:4}
	ISETP P0, R0, 0x20 {S:4}
BR0:	@P0 BRA LOOP {S:5}
	EXIT
`

// TestSteadyObservationBoundAbandons pins the bound on the observation
// table: a periodic loop whose period × resident warps exceeds
// maxObservations locks and skips with sampling off, but with sampling
// on the recording is abandoned — counted as a fallback, nothing locked
// — and results and samples still equal the cycle stepper.
func TestSteadyObservationBoundAbandons(t *testing.T) {
	p, err := Load(sass.MustAssemble(longSyncSrc))
	if err != nil {
		t.Fatal(err)
	}
	const latency = 2200
	spec := &Spec{Trips: map[Site]TripFunc{{"longsync", "BR0"}: UniformTrips(24)}}
	bound, err := spec.Bind(p)
	if err != nil {
		t.Fatal(err)
	}
	load, err := p.FlatIndex("longsync", "LOOP")
	if err != nil {
		t.Fatal(err)
	}
	wl := slowLoad{boundWorkload: bound.(*boundWorkload), pc: load, cycles: latency}
	// One block of 32 warps: a single barrier keeps the whole SM in step.
	launch := LaunchConfig{Entry: "longsync", Grid: Dim(1), Block: Dim(1024), RegsPerThread: 16}
	const warps = 32
	if latency*warps <= maxObservations {
		t.Fatalf("period (> %d) x %d warps fits maxObservations = %d; the test would be vacuous",
			latency, warps, maxObservations)
	}
	run := func(step bool, samplePeriod int) (*Result, []Sample) {
		t.Helper()
		gc := *arch.VoltaV100()
		gc.NumSMs = 1
		sink := &captureSink{}
		res, err := Run(context.Background(), p, launch, wl, Config{
			GPU: &gc, SimSMs: 1, Seed: 7, Parallelism: 1,
			SamplePeriod: samplePeriod, Sink: sink, stepEveryCycle: step,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, sink.samples
	}
	if res, _ := run(false, 0); res.PeriodsDetected == 0 || res.CyclesFastForwarded == 0 {
		t.Fatalf("unsampled control run did not fast-forward (%+v); the kernel is not periodic", res)
	}
	stepRes, stepSamples := run(true, 64)
	res, samples := run(false, 64)
	if res.PeriodsDetected != 0 || res.CyclesFastForwarded != 0 {
		t.Errorf("locked a period past the observation bound: %+v", res)
	}
	if res.FastForwardFallbacks == 0 {
		t.Errorf("abandoned recording not counted as a fallback: %+v", res)
	}
	if !reflect.DeepEqual(zeroFFCounters(stepRes), zeroFFCounters(res)) {
		t.Errorf("result differs from cycle stepper:\nstep: %+v\nskip: %+v", stepRes, res)
	}
	if !reflect.DeepEqual(stepSamples, samples) {
		t.Errorf("sample stream differs from cycle stepper (%d vs %d samples)", len(stepSamples), len(samples))
	}
}

// latencyVisits wraps a Workload and notes every visit argument its
// Latency method is called with.
type latencyVisits struct {
	Workload
	calls, nonZero int
}

func (l *latencyVisits) Latency(w WarpCtx, pc, visit int) int {
	l.calls++
	if visit != 0 {
		l.nonZero++
	}
	return l.Workload.Latency(w, pc, visit)
}

// TestMemoryLatencySeesVisitZero pins a quirk the goldens rest on:
// warpState.visits advances only at branches, so however often a warp
// re-executes a load, Workload.Latency (and the jitter hash) see visit
// 0 and the (warp, pc) pair keeps one latency for the whole run.
func TestMemoryLatencySeesVisitZero(t *testing.T) {
	p, err := Load(sass.MustAssemble(memBoundSrc))
	if err != nil {
		t.Fatal(err)
	}
	spec := &Spec{Trips: map[Site]TripFunc{{"membound", "BR0"}: UniformTrips(12)}}
	bound, err := spec.Bind(p)
	if err != nil {
		t.Fatal(err)
	}
	wl := &latencyVisits{Workload: bound}
	launch := LaunchConfig{Entry: "membound", Grid: Dim(1), Block: Dim(64), RegsPerThread: 16}
	if _, err := Run(context.Background(), p, launch, wl, Config{
		GPU: arch.VoltaV100(), SimSMs: 1, Seed: 1, Parallelism: 1,
	}); err != nil {
		t.Fatal(err)
	}
	// 2 warps x 13 loop iterations of one load each.
	if wl.calls != 26 {
		t.Errorf("Latency called %d times, want 26", wl.calls)
	}
	if wl.nonZero != 0 {
		t.Errorf("Latency saw a non-zero visit %d times; visits must advance only at branches", wl.nonZero)
	}
}

// TestSteadyStatefulWorkloadNeverFastForwards pins the capability gate:
// a Workload that does not implement TakenStability (here: a stateful
// Taken closure wrapped to hide the interface) must run entirely on the
// normal path — identical results, zero detector activity.
func TestSteadyStatefulWorkloadNeverFastForwards(t *testing.T) {
	m := sass.MustAssemble(syncSrc)
	p, err := Load(m)
	if err != nil {
		t.Fatal(err)
	}
	spec := &Spec{Trips: map[Site]TripFunc{{"syncy", "BR0"}: UniformTrips(400)}}
	wl, err := spec.Bind(p)
	if err != nil {
		t.Fatal(err)
	}
	launch := LaunchConfig{Entry: "syncy", Grid: Dim(4), Block: Dim(256), RegsPerThread: 16}
	run := func(w Workload) *Result {
		gc := *arch.VoltaV100()
		gc.NumSMs = 4
		res, err := Run(context.Background(), p, launch, w, Config{
			GPU: &gc, SimSMs: 4, Seed: 7, Parallelism: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ffRes := run(wl)
	if ffRes.PeriodsDetected == 0 {
		t.Fatal("periodic control run did not fast-forward; the gate test would be vacuous")
	}
	plainRes := run(opaqueWorkload{wl})
	if plainRes.PeriodsDetected != 0 || plainRes.CyclesFastForwarded != 0 {
		t.Errorf("opaque workload fast-forwarded: %+v", plainRes)
	}
	if !reflect.DeepEqual(zeroFFCounters(ffRes), zeroFFCounters(plainRes)) {
		t.Errorf("fast-forwarded result differs from plain run:\nff:    %+v\nplain: %+v", ffRes, plainRes)
	}
}

// opaqueWorkload forwards the Workload methods but hides any optional
// capability interfaces of the wrapped value.
type opaqueWorkload struct{ wl Workload }

func (o opaqueWorkload) Taken(w WarpCtx, pc, visit int) bool  { return o.wl.Taken(w, pc, visit) }
func (o opaqueWorkload) Latency(w WarpCtx, pc, visit int) int { return o.wl.Latency(w, pc, visit) }
func (o opaqueWorkload) Transactions(pc int) int              { return o.wl.Transactions(pc) }

// TestTakenRunClosedForm pins the modular arithmetic behind
// boundWorkload.TakenRun against brute force over the actual Taken
// outcomes.
func TestTakenRunClosedForm(t *testing.T) {
	for _, trips := range []int{0, 1, 2, 3, 7, 90} {
		b := &boundWorkload{trips: make([]TripFunc, 8)}
		b.trips[4] = UniformTrips(trips)
		w := WarpCtx{}
		for visit := 0; visit < 2*(trips+2); visit++ {
			for _, stride := range []int{1, 2, 3, trips, trips + 1} {
				for _, want := range []bool{false, true} {
					const limit = 50
					got := b.TakenRun(w, 4, visit, stride, want, limit)
					brute := int64(0)
					for brute < limit && b.Taken(w, 4, visit+int(brute)*stride) == want {
						brute++
					}
					if got != brute {
						t.Fatalf("TakenRun(trips=%d, visit=%d, stride=%d, want=%v) = %d, brute force = %d",
							trips, visit, stride, want, got, brute)
					}
				}
			}
		}
	}
}
