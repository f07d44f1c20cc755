package gpa_test

import (
	"context"
	"runtime"
	"testing"

	"gpa"
	"gpa/internal/kernels"
	"gpa/internal/profiler"
)

// TestCrossArchDeterminism runs the same kernel on every registered
// architecture, twice per architecture plus once with parallel SM
// simulation, and asserts the rendered reports are byte-identical: the
// determinism contract PR 1 established for parallelism holds per
// architecture.
func TestCrossArchDeterminism(t *testing.T) {
	for _, g := range gpa.GPUs() {
		g := g
		t.Run(gpa.GPUName(g), func(t *testing.T) {
			render := func(parallelism int) string {
				k, opts := apiKernel(t)
				opts.GPU = g
				opts.SimSMs = 4
				opts.Parallelism = parallelism
				report, err := k.Advise(context.Background(), opts)
				if err != nil {
					t.Fatalf("%s: %v", g.Name, err)
				}
				return report.String()
			}
			first := render(1)
			if first == "" {
				t.Fatal("empty report")
			}
			if again := render(1); again != first {
				t.Errorf("%s: two sequential runs differ", g.Name)
			}
			if par := render(4); par != first {
				t.Errorf("%s: parallel SM run differs from sequential", g.Name)
			}
		})
	}
}

// TestVariantProfilesParallelismInvariant is the same contract over the
// whole kernel suite, for what the engine now does by default: every
// Table 3 variant (26 rows, original and optimized) profiles to one
// digest — per-PC sample counters and bufferFlushes included — whether
// its SMs run on one goroutine, two or four. The per-SM counters are
// summed, and a sum needs no order.
func TestVariantProfilesParallelismInvariant(t *testing.T) {
	prev := runtime.GOMAXPROCS(4) // Parallelism is capped by it
	defer runtime.GOMAXPROCS(prev)
	ctx := context.Background()
	flushing := 0
	for _, b := range kernels.All() {
		for name, v := range map[string]*kernels.Variant{"base": &b.Base, "opt": &b.Opt} {
			k, wl, err := v.Build()
			if err != nil {
				t.Fatalf("%s %s: %v", b.ID(), name, err)
			}
			digest := func(parallelism int) (string, int) {
				prof, err := k.Profile(ctx, &gpa.Options{SimSMs: 4, Seed: 11, Workload: wl, Parallelism: parallelism})
				if err != nil {
					t.Fatalf("%s %s: %v", b.ID(), name, err)
				}
				d, err := prof.Digest()
				if err != nil {
					t.Fatal(err)
				}
				return d, prof.BufferFlushes
			}
			want, flushes := digest(1)
			if flushes > 0 {
				flushing++
			}
			for _, par := range []int{2, 4} {
				if got, f := digest(par); got != want || f != flushes {
					t.Errorf("%s %s: Parallelism %d profiles to %s (%d flushes), sequential to %s (%d)",
						b.ID(), name, par, got[:16], f, want[:16], flushes)
				}
			}
		}
	}
	if flushing == 0 {
		t.Error("no variant filled a sample buffer: the flush count went unexercised")
	}
}

// TestCrossArchCyclesDiffer asserts the architecture actually reaches
// the simulator: the same kernel must not take the same number of
// cycles on a V100 and a T4 (different memory latencies and occupancy
// limits).
func TestCrossArchCyclesDiffer(t *testing.T) {
	measure := func(name string) int64 {
		gpu, err := gpa.LookupGPU(name)
		if err != nil {
			t.Fatal(err)
		}
		k, opts := apiKernel(t)
		opts.GPU = gpu
		cycles, err := k.Measure(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		return cycles
	}
	v100, t4 := measure("v100"), measure("t4")
	if v100 == t4 {
		t.Errorf("v100 and t4 simulate to identical cycle counts (%d): the GPU model is not plumbed through", v100)
	}
}

// TestProfileCarriesArchitecture pins the offline-half contract: a
// profile collected on a non-default architecture records its model,
// survives the JSON round trip, and AdviseFromProfile analyzes it with
// that model's limits unless the caller overrides.
func TestProfileCarriesArchitecture(t *testing.T) {
	t4, err := gpa.LookupGPU("t4")
	if err != nil {
		t.Fatal(err)
	}
	k, opts := apiKernel(t)
	opts.GPU = t4
	prof, err := k.Profile(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if prof.GPU != "t4" {
		t.Fatalf("profile GPU = %q, want t4", prof.GPU)
	}
	path := t.TempDir() + "/profile.json"
	if err := prof.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := profiler.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	report, err := k.AdviseFromProfile(context.Background(), loaded, nil)
	if err != nil {
		t.Fatal(err)
	}
	if report.Context.GPU.SM != 75 {
		t.Errorf("offline analysis used SM %d, want the profile's 75", report.Context.GPU.SM)
	}
	// The default model stays unrecorded so default profiles keep their
	// digest across revisions.
	k2, opts2 := apiKernel(t)
	defProf, err := k2.Profile(context.Background(), opts2)
	if err != nil {
		t.Fatal(err)
	}
	if defProf.GPU != "" {
		t.Errorf("default-arch profile records GPU %q, want empty", defProf.GPU)
	}
	defReport, err := k2.AdviseFromProfile(context.Background(), defProf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if defReport.Context.GPU.SM != 70 {
		t.Errorf("default offline analysis used SM %d, want 70", defReport.Context.GPU.SM)
	}
}

func TestGPUsAndNames(t *testing.T) {
	gpus := gpa.GPUs()
	if len(gpus) < 3 {
		t.Fatalf("GPUs() = %d models, want >= 3", len(gpus))
	}
	for _, g := range gpus {
		name := gpa.GPUName(g)
		back, err := gpa.LookupGPU(name)
		if err != nil {
			t.Errorf("LookupGPU(GPUName(%s)=%q): %v", g.Name, name, err)
			continue
		}
		if back.SM != g.SM {
			t.Errorf("LookupGPU(%q).SM = %d, want %d", name, back.SM, g.SM)
		}
	}
	if _, err := gpa.LookupGPU("h100"); err == nil {
		t.Error("LookupGPU of an unregistered model must fail")
	}
}
