package gpa_test

// Typed-error taxonomy tests: every failure across the public surface
// wraps exactly one sentinel, and the identity survives errors.Is/As
// round-trips through the direct API, the engine, and the cache.

import (
	"context"
	"errors"
	"testing"
	"time"

	"gpa"
)

func TestLoadErrorsAreTyped(t *testing.T) {
	if _, err := gpa.LoadKernelAsm("garbage", gpa.Launch{}); !errors.Is(err, gpa.ErrAssemble) {
		t.Errorf("bad asm err = %v, want ErrAssemble", err)
	}
	// Parses, but its operand stream overflows the 128-bit word: the
	// module could never be packed, keyed or saved.
	if _, err := gpa.LoadKernelAsm(".func k global\nA:ISETP 0,[R0],0\nEXIT", gpa.Launch{}); !errors.Is(err, gpa.ErrAssemble) {
		t.Errorf("unencodable asm err = %v, want ErrAssemble", err)
	}
	if _, err := gpa.LoadKernelAsm(apiKernelSrc, gpa.Launch{Entry: "missing"}); !errors.Is(err, gpa.ErrBadKernel) {
		t.Errorf("missing entry err = %v, want ErrBadKernel", err)
	}
	if _, err := gpa.LoadKernelBinary([]byte("not a cubin"), gpa.Launch{}); !errors.Is(err, gpa.ErrBadKernel) {
		t.Errorf("bad blob err = %v, want ErrBadKernel", err)
	}
	if _, err := gpa.LookupGPU("sm_999"); !errors.Is(err, gpa.ErrUnknownArch) {
		t.Errorf("unknown arch err = %v, want ErrUnknownArch", err)
	}
}

func TestSimulationErrorsAreTyped(t *testing.T) {
	// A launch shape no SM configuration can host: bad kernel, found at
	// simulation time (loading cannot know the launch is impossible).
	k, err := gpa.LoadKernelAsm(apiKernelSrc, gpa.Launch{
		Entry: "vecscale", GridX: 1, BlockX: 2048,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Measure(context.Background(), nil); !errors.Is(err, gpa.ErrBadKernel) {
		t.Errorf("impossible launch err = %v, want ErrBadKernel", err)
	}
}

func TestAdviseFromProfileUnknownArchIsTyped(t *testing.T) {
	k, opts := apiKernel(t)
	prof, err := k.Profile(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	prof.GPU = "sm_999" // a profile from an unregistered deployment
	if _, err := k.AdviseFromProfile(context.Background(), prof, nil); !errors.Is(err, gpa.ErrUnknownArch) {
		t.Errorf("unknown profile arch err = %v, want ErrUnknownArch", err)
	}
}

func TestCanceledErrorAsExposesCause(t *testing.T) {
	k, opts := slowKernel(t, 50_000, 20)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := k.Measure(ctx, opts)
	var ce *gpa.CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("errors.As(%v, *CanceledError) = false", err)
	}
	if !errors.Is(ce.Cause, context.Canceled) {
		t.Errorf("cause = %v, want context.Canceled", ce.Cause)
	}

	// Deadline flavor: the cause distinguishes expiry from cancel.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	_, err = k.Measure(dctx, opts)
	if !errors.As(err, &ce) || !errors.Is(ce.Cause, context.DeadlineExceeded) {
		t.Errorf("expired deadline err = %v, want CanceledError with DeadlineExceeded cause", err)
	}
}

// TestEngineErrorsRoundTripThroughCache pins that typed identity
// survives the engine's layers and that errors are never cached: the
// same failing job fails identically twice, costing a pipeline run
// each time.
func TestEngineErrorsRoundTripThroughCache(t *testing.T) {
	eng := gpa.NewEngine(&gpa.EngineOptions{Workers: 1})
	res := eng.Do(context.Background(), gpa.Job{Kind: gpa.JobMeasure})
	if !errors.Is(res.Err, gpa.ErrBadKernel) {
		t.Errorf("kernel-less job err = %v, want ErrBadKernel", res.Err)
	}

	k, err := gpa.LoadKernelAsm(apiKernelSrc, gpa.Launch{
		Entry: "vecscale", GridX: 1, BlockX: 2048, // impossible launch
	})
	if err != nil {
		t.Fatal(err)
	}
	job := gpa.Job{Kind: gpa.JobAdvise, Kernel: k}
	first := eng.Do(context.Background(), job)
	if !errors.Is(first.Err, gpa.ErrBadKernel) {
		t.Fatalf("first err = %v, want ErrBadKernel", first.Err)
	}
	second := eng.Do(context.Background(), job)
	if !errors.Is(second.Err, gpa.ErrBadKernel) {
		t.Fatalf("second err = %v, want ErrBadKernel", second.Err)
	}
	st := eng.Stats()
	if st.Errors != 2 || st.Runs != 2 {
		t.Errorf("errors/runs = %d/%d, want 2/2 (errors are never cached)", st.Errors, st.Runs)
	}

	// A successful job still caches; a cache hit keeps Err nil.
	ok1 := eng.Do(context.Background(), gpa.Job{Kind: gpa.JobAdvise, Kernel: mustKernel(t)})
	if ok1.Err != nil {
		t.Fatal(ok1.Err)
	}
	ok2 := eng.Do(context.Background(), gpa.Job{Kind: gpa.JobAdvise, Kernel: mustKernel(t)})
	if ok2.Err != nil || !ok2.Cached {
		t.Errorf("cache hit = (err %v, cached %v), want (nil, true)", ok2.Err, ok2.Cached)
	}
}

// mustKernel builds the small workload-free API kernel (cacheable: no
// opaque workload callbacks).
func mustKernel(t *testing.T) *gpa.Kernel {
	t.Helper()
	k, err := gpa.LoadKernelAsm(apiKernelSrc, gpa.Launch{
		Entry: "vecscale", GridX: 4, BlockX: 64, RegsPerThread: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	return k
}
