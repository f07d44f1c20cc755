package profiler

import (
	"context"
	"runtime/debug"
	"testing"

	"gpa/internal/arch"
	"gpa/internal/gpusim"
	"gpa/internal/sass"
)

// TestCollectProgramAllocations pins what a served CollectProgram
// allocates once the program's arenas and the counter scratch are
// primed: the profile it returns and nothing else — the struct, its
// record slice as it grows, and one map per record side with stalls.
// The simulation and the sample counting allocate nothing.
func TestCollectProgramAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector (its runtime allocates inside the measured window)")
	}
	m := sass.MustAssemble(kernelSrc)
	prog, err := gpusim.Load(m)
	if err != nil {
		t.Fatal(err)
	}
	spec := &gpusim.Spec{Trips: map[gpusim.Site]gpusim.TripFunc{
		{Func: "stencil", Label: "BR0"}: gpusim.UniformTrips(63),
	}}
	wl, err := spec.Bind(prog)
	if err != nil {
		t.Fatal(err)
	}
	launch := gpusim.LaunchConfig{Entry: "stencil", Grid: gpusim.Dim(4), Block: gpusim.Dim(128), RegsPerThread: 16}
	opts := Options{GPU: arch.VoltaV100(), SimSMs: 2, Seed: 7, SamplePeriod: 32}
	ctx := context.Background()
	var prof *Profile
	do := func() {
		if prof, err = CollectProgram(ctx, prog, launch, wl, opts); err != nil {
			t.Fatal(err)
		}
	}
	do() // prime the program's arenas and the counter pool
	// What the returned profile is made of: itself, each doubling of its
	// record slice, its maps (a small map is one object, its first
	// bucket a second).
	want := 1.0
	for n := 1; n < 2*len(prof.Records); n *= 2 {
		want++
	}
	for _, rec := range prof.Records {
		for _, m := range []StallCounts{rec.Stalls, rec.LatencyStalls} {
			if m != nil {
				want += 2
			}
		}
	}
	// A GC between runs would drop the sync.Pool contents and make the
	// measurement flaky; disable it for the measured window.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if avg := testing.AllocsPerRun(10, do); avg > want {
		t.Errorf("warm CollectProgram allocates %.1f objects/op, want <= %.0f (the profile's own %d records and their maps)",
			avg, want, len(prof.Records))
	}
}
