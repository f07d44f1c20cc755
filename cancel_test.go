package gpa_test

// Cancellation contract tests (run under -race in CI): a canceled
// context aborts an in-flight simulation promptly without leaking
// goroutines, a canceled coalesced waiter detaches without killing the
// shared run, an expired deadline fails a queued job, and a bounded
// queue sheds load with ErrQueueFull.

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"gpa"
)

// slowKernel builds a kernel whose simulation runs for hundreds of
// milliseconds (trips controls the loop length; 50_000 ≈ 25M cycles,
// safely under the runaway bound), so tests can cancel mid-flight.
func slowKernel(t *testing.T, trips int, seed uint64) (*gpa.Kernel, *gpa.Options) {
	t.Helper()
	k, err := gpa.LoadKernelAsm(apiKernelSrc, gpa.Launch{
		Entry: "vecscale", GridX: 160, BlockX: 256, RegsPerThread: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	wl, err := k.BindWorkload(&gpa.WorkloadSpec{
		Trips: map[gpa.Site]gpa.TripFunc{
			{Func: "vecscale", Label: "BR0"}: gpa.UniformTrips(trips),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return k, &gpa.Options{Workload: wl, Seed: seed, SimSMs: 1}
}

// waitForGoroutines polls until the goroutine count settles back to
// (or below) want, failing the test after the deadline — the
// goroutine-leak check for detached runs.
func waitForGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutine count stuck at %d, want <= %d (leaked simulation?)",
		runtime.NumGoroutine(), want)
}

func TestCancelMidSimulationPrompt(t *testing.T) {
	k, opts := slowKernel(t, 50_000, 1)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := k.Measure(ctx, opts)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the simulation get going
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, gpa.ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("cancel not honored after %s", time.Since(start))
	}
	// The full run takes hundreds of milliseconds; a prompt cancel
	// returns well before it could have finished.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancellation took %s, want well under the full-run time", elapsed)
	}
}

func TestCancelPreemptsSimulation(t *testing.T) {
	// A context canceled before the call returns immediately without
	// simulating at all.
	k, opts := slowKernel(t, 50_000, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := k.Measure(ctx, opts); !errors.Is(err, gpa.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("pre-canceled Measure took %s", elapsed)
	}
	if _, err := k.Profile(ctx, opts); !errors.Is(err, gpa.ErrCanceled) {
		t.Fatalf("Profile err = %v, want ErrCanceled", err)
	}
	if _, err := k.Advise(ctx, opts); !errors.Is(err, gpa.ErrCanceled) {
		t.Fatalf("Advise err = %v, want ErrCanceled", err)
	}
}

func TestEngineCancelDetachesWithoutGoroutineLeak(t *testing.T) {
	eng := gpa.NewEngine(&gpa.EngineOptions{Workers: 1})
	k, opts := slowKernel(t, 50_000, 3)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan gpa.JobResult, 1)
	go func() {
		done <- eng.Do(ctx, gpa.Job{
			Kind: gpa.JobMeasure, Kernel: k, Options: opts, WorkloadKey: "leak",
		})
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	res := <-done
	if !errors.Is(res.Err, gpa.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", res.Err)
	}
	// The caller was the flight's only waiter, so detaching cancels the
	// shared run; its goroutine must unwind.
	waitForGoroutines(t, before)
	if st := eng.Stats(); st.Canceled == 0 {
		t.Errorf("stats.Canceled = 0 after a canceled job (%+v)", st)
	}
	// The global goroutine count can dip to the baseline while the
	// detached flight is still unwinding (unrelated goroutines from
	// other tests exiting), so poll the engine's own accounting rather
	// than reading it once; a genuinely stuck flight still fails here.
	deadline := time.Now().Add(5 * time.Second)
	for eng.Stats().Inflight != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if st := eng.Stats(); st.Inflight != 0 {
		t.Errorf("stats.Inflight = %d after drain", st.Inflight)
	}
}

func TestCancelOneOfNCoalescedWaiters(t *testing.T) {
	eng := gpa.NewEngine(&gpa.EngineOptions{Workers: 1})
	k, opts := slowKernel(t, 20_000, 4)
	job := gpa.Job{Kind: gpa.JobAdvise, Kernel: k, Options: opts, WorkloadKey: "coalesce"}

	const n = 4
	ctxs := make([]context.Context, n)
	cancels := make([]context.CancelFunc, n)
	for i := range ctxs {
		ctxs[i], cancels[i] = context.WithCancel(context.Background())
		defer cancels[i]()
	}
	results := make([]gpa.JobResult, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = eng.Do(ctxs[i], job)
		}(i)
	}
	// Give all four time to pile onto one flight, then cancel one.
	time.Sleep(50 * time.Millisecond)
	cancels[0]()
	wg.Wait()

	if !errors.Is(results[0].Err, gpa.ErrCanceled) {
		t.Fatalf("canceled waiter err = %v, want ErrCanceled", results[0].Err)
	}
	var report string
	for i := 1; i < n; i++ {
		if results[i].Err != nil {
			t.Fatalf("waiter %d: %v (detaching one waiter must not kill the shared run)",
				i, results[i].Err)
		}
		text := reportOf(t, results[i]).String()
		if report == "" {
			report = text
		} else if text != report {
			t.Errorf("waiter %d report differs", i)
		}
	}
	st := eng.Stats()
	if st.Runs != 1 {
		t.Errorf("runs = %d, want 1 (one shared simulation)", st.Runs)
	}
	if st.Misses != 1 || st.Coalesced != n-1 {
		t.Errorf("misses/coalesced = %d/%d, want 1/%d", st.Misses, st.Coalesced, n-1)
	}
	if st.Canceled != 1 {
		t.Errorf("canceled = %d, want 1", st.Canceled)
	}
}

// TestRejoinAfterLastWaiterDetached pins the abandoned-flight fix: a
// fresh caller arriving while a fully-detached flight's run is still
// unwinding must start a new run, not inherit the cancellation error.
func TestRejoinAfterLastWaiterDetached(t *testing.T) {
	eng := gpa.NewEngine(&gpa.EngineOptions{Workers: 1})
	k, opts := slowKernel(t, 20_000, 11)
	job := gpa.Job{Kind: gpa.JobMeasure, Kernel: k, Options: opts, WorkloadKey: "rejoin"}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan gpa.JobResult, 1)
	go func() { done <- eng.Do(ctx, job) }()
	time.Sleep(50 * time.Millisecond)
	cancel()
	if res := <-done; !errors.Is(res.Err, gpa.ErrCanceled) {
		t.Fatalf("first caller err = %v, want ErrCanceled", res.Err)
	}
	// Immediately re-request with a live context: the abandoned run may
	// still be unwinding toward its cancel checkpoint, but this caller
	// must get a fresh, successful run.
	res := eng.Do(context.Background(), job)
	if res.Err != nil {
		t.Fatalf("rejoin err = %v, want a fresh successful run", res.Err)
	}
	if res.Cycles <= 0 {
		t.Fatalf("rejoin cycles = %d", res.Cycles)
	}
}

func TestQueuedJobDeadlineExpires(t *testing.T) {
	eng := gpa.NewEngine(&gpa.EngineOptions{Workers: 1})
	blockK, blockOpts := slowKernel(t, 50_000, 5)
	quickK, quickOpts := slowKernel(t, 64, 6)

	// Occupy the only worker...
	blockCtx, stopBlock := context.WithCancel(context.Background())
	defer stopBlock()
	blocked := make(chan gpa.JobResult, 1)
	go func() {
		blocked <- eng.Do(blockCtx, gpa.Job{
			Kind: gpa.JobMeasure, Kernel: blockK, Options: blockOpts, WorkloadKey: "block",
		})
	}()
	time.Sleep(50 * time.Millisecond)

	// ...then submit a job that cannot start before its deadline.
	res := eng.Do(context.Background(), gpa.Job{
		Kind: gpa.JobMeasure, Kernel: quickK, Options: quickOpts,
		WorkloadKey: "starved", Timeout: 30 * time.Millisecond,
	})
	if !errors.Is(res.Err, gpa.ErrCanceled) || !errors.Is(res.Err, context.DeadlineExceeded) {
		t.Fatalf("queued job err = %v, want ErrCanceled wrapping context.DeadlineExceeded", res.Err)
	}
	stopBlock()
	<-blocked
	if st := eng.Stats(); st.Canceled == 0 {
		t.Errorf("stats.Canceled = 0, want > 0 (%+v)", st)
	}
}

func TestQueueFullSheds(t *testing.T) {
	// One worker, no queue: a second concurrent job is shed immediately.
	eng := gpa.NewEngine(&gpa.EngineOptions{Workers: 1, MaxQueue: -1})
	blockK, blockOpts := slowKernel(t, 50_000, 7)
	quickK, quickOpts := slowKernel(t, 64, 8)

	blockCtx, stopBlock := context.WithCancel(context.Background())
	defer stopBlock()
	blocked := make(chan gpa.JobResult, 1)
	go func() {
		blocked <- eng.Do(blockCtx, gpa.Job{
			Kind: gpa.JobMeasure, Kernel: blockK, Options: blockOpts, WorkloadKey: "hog",
		})
	}()
	// Wait until the hog actually holds the admission slot.
	deadline := time.Now().Add(5 * time.Second)
	for eng.Stats().Inflight == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}

	start := time.Now()
	res := eng.Do(context.Background(), gpa.Job{
		Kind: gpa.JobMeasure, Kernel: quickK, Options: quickOpts, WorkloadKey: "shed",
	})
	if !errors.Is(res.Err, gpa.ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", res.Err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("shed took %s, want fail-fast", elapsed)
	}
	stopBlock()
	<-blocked
	if st := eng.Stats(); st.Shed != 1 {
		t.Errorf("stats.Shed = %d, want 1", st.Shed)
	}
}

func TestEngineShutdown(t *testing.T) {
	// Graceful path: an idle engine drains immediately and rejects new
	// jobs afterwards.
	idle := gpa.NewEngine(&gpa.EngineOptions{Workers: 1})
	if err := idle.Shutdown(context.Background()); err != nil {
		t.Fatalf("idle shutdown: %v", err)
	}
	k, opts := slowKernel(t, 64, 9)
	res := idle.Do(context.Background(), gpa.Job{Kind: gpa.JobMeasure, Kernel: k, Options: opts})
	if !errors.Is(res.Err, gpa.ErrShuttingDown) {
		t.Fatalf("post-shutdown err = %v, want ErrShuttingDown", res.Err)
	}

	// Hard-stop path: an expired drain deadline cancels the in-flight
	// simulation instead of waiting for it.
	busy := gpa.NewEngine(&gpa.EngineOptions{Workers: 1})
	slowK, slowOpts := slowKernel(t, 50_000, 10)
	done := make(chan gpa.JobResult, 1)
	go func() {
		done <- busy.Do(context.Background(), gpa.Job{
			Kind: gpa.JobMeasure, Kernel: slowK, Options: slowOpts, WorkloadKey: "drain",
		})
	}()
	time.Sleep(50 * time.Millisecond)
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := busy.Shutdown(drainCtx); !errors.Is(err, gpa.ErrCanceled) {
		t.Fatalf("hard-stop shutdown err = %v, want ErrCanceled", err)
	}
	r := <-done
	// The server aborted the work, not the caller: the in-flight job
	// fails as shutdown (503 shutting_down through gpad), never as a
	// client-side cancel.
	if !errors.Is(r.Err, gpa.ErrShuttingDown) {
		t.Fatalf("in-flight job err = %v, want ErrShuttingDown after hard stop", r.Err)
	}
	if st := busy.Stats(); st.Inflight != 0 {
		t.Errorf("inflight = %d after shutdown", st.Inflight)
	}
}
