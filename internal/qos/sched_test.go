package qos

// Scheduler contract tests. The scheduler is deterministic given a
// grant sequence (DWRR has no randomness and with one worker grants
// serialize through release), so these tests pin exact grant orders
// rather than asserting on probabilities.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"gpa/internal/apierr"
)

// acquireN enqueues n Acquire calls for tenant on lane against s; each
// granted waiter reports its tenant on order and releases immediately,
// so with one worker the recorded sequence is exactly the grant order.
func acquireN(t *testing.T, s *Scheduler, wg *sync.WaitGroup, order chan<- string, tenant string, lane Lane, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			release, err := s.Acquire(context.Background(), tenant, lane)
			if err != nil {
				t.Errorf("Acquire(%s): %v", tenant, err)
				return
			}
			order <- tenant
			release()
		}()
	}
}

// waitQueued polls until the scheduler reports depth queued waiters.
func waitQueued(t *testing.T, s *Scheduler, depth int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s.Snapshot().Queued == depth {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d (at %d)", depth, s.Snapshot().Queued)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// hog occupies one worker slot until the returned func is called.
func hog(t *testing.T, s *Scheduler, tenant string, lane Lane) func() {
	t.Helper()
	release, err := s.Acquire(context.Background(), tenant, lane)
	if err != nil {
		t.Fatalf("hog acquire: %v", err)
	}
	return release
}

// TestRunningCountsHeldSlots: Running counts the worker slots held at
// the moment, whether a grant was immediate or came off the queue when
// a slot freed.
func TestRunningCountsHeldSlots(t *testing.T) {
	s := NewScheduler(2, 0, Config{})
	if n := s.Running(); n != 0 {
		t.Errorf("idle: Running = %d, want 0", n)
	}
	first := hog(t, s, "a", LaneInteractive)
	if n := s.Running(); n != 1 {
		t.Errorf("one grant: Running = %d, want 1", n)
	}
	second := hog(t, s, "a", LaneInteractive)
	queued := make(chan int, 1)
	go func() {
		release, err := s.Acquire(context.Background(), "a", LaneInteractive)
		if err != nil {
			queued <- -1
			return
		}
		n := s.Running()
		release()
		queued <- n
	}()
	waitQueued(t, s, 1)
	if n := s.Running(); n != 2 {
		t.Errorf("two grants and one queued: Running = %d, want 2", n)
	}
	first()
	if n := <-queued; n != 2 {
		t.Errorf("queued grant beside one run: Running = %d, want 2", n)
	}
	second()
	if n := s.Running(); n != 0 {
		t.Errorf("after every release: Running = %d, want 0", n)
	}
}

// TestDWRRFairnessUnderImbalance is the scheduler half of the ISSUE's
// fairness pin: two equal-weight tenants with a 10:1 queued backlog
// imbalance are granted slots alternately while both stay backlogged —
// tenant b's entire backlog completes within a 1.5:1 tolerance of
// tenant a's completions, instead of waiting behind a's flood.
func TestDWRRFairnessUnderImbalance(t *testing.T) {
	s := NewScheduler(1, 0, Config{})
	done := hog(t, s, "a", LaneInteractive)

	const aJobs, bJobs = 30, 3
	order := make(chan string, aJobs+bJobs)
	var wg sync.WaitGroup
	acquireN(t, s, &wg, order, "a", LaneInteractive, aJobs)
	waitQueued(t, s, aJobs)
	acquireN(t, s, &wg, order, "b", LaneInteractive, bJobs)
	waitQueued(t, s, aJobs+bJobs)

	done()
	wg.Wait()
	close(order)

	var seq []string
	for tenant := range order {
		seq = append(seq, tenant)
	}
	if len(seq) != aJobs+bJobs {
		t.Fatalf("granted %d jobs, want %d", len(seq), aJobs+bJobs)
	}
	aBeforeLastB := 0
	bSeen := 0
	for _, tenant := range seq {
		if tenant == "b" {
			bSeen++
			if bSeen == bJobs {
				break
			}
		} else {
			aBeforeLastB++
		}
	}
	if bSeen != bJobs {
		t.Fatalf("only %d of %d b-grants happened", bSeen, bJobs)
	}
	// Strict alternation puts exactly bJobs a-grants before b's last
	// grant (the hog's tenant gets the first rotor stop); 1.5:1 is the
	// ISSUE tolerance.
	tolerance := 1.5
	if max := int(tolerance*bJobs) + 1; aBeforeLastB > max {
		t.Fatalf("tenant a completed %d jobs before tenant b's backlog of %d drained (want ≤ %d): 10:1 offered load leaked into completions: %v",
			aBeforeLastB, bJobs, max, seq[:bJobs+aBeforeLastB])
	}
}

// TestDWRRWeightedShare pins the weighted grant pattern: weight 3 vs
// weight 1, both backlogged, grants 3:1 per round.
func TestDWRRWeightedShare(t *testing.T) {
	cfg := Config{Tenants: map[string]TenantConfig{"heavy": {Weight: 3}, "light": {Weight: 1}}}
	s := NewScheduler(1, 0, cfg)
	done := hog(t, s, "heavy", LaneInteractive)

	order := make(chan string, 16)
	var wg sync.WaitGroup
	acquireN(t, s, &wg, order, "heavy", LaneInteractive, 12)
	waitQueued(t, s, 12)
	acquireN(t, s, &wg, order, "light", LaneInteractive, 4)
	waitQueued(t, s, 16)

	done()
	wg.Wait()
	close(order)

	want := []string{"heavy", "heavy", "heavy", "light", "heavy", "heavy", "heavy", "light"}
	i := 0
	for tenant := range order {
		if i < len(want) && tenant != want[i] {
			t.Fatalf("grant %d went to %s, want %s", i, tenant, want[i])
		}
		i++
	}
}

// TestInteractivePreemptsQueuedBatch: when a slot frees with both
// lanes queued, interactive work gets it regardless of queue order.
func TestInteractivePreemptsQueuedBatch(t *testing.T) {
	s := NewScheduler(1, 0, Config{})
	done := hog(t, s, "a", LaneInteractive)

	order := make(chan string, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		release, err := s.Acquire(context.Background(), "a", LaneBatch)
		if err != nil {
			t.Errorf("batch acquire: %v", err)
			return
		}
		order <- "batch"
		release()
	}()
	waitQueued(t, s, 1)
	go func() {
		defer wg.Done()
		release, err := s.Acquire(context.Background(), "a", LaneInteractive)
		if err != nil {
			t.Errorf("interactive acquire: %v", err)
			return
		}
		order <- "interactive"
		release()
	}()
	waitQueued(t, s, 2)

	done()
	wg.Wait()
	close(order)
	if first := <-order; first != "interactive" {
		t.Fatalf("first freed slot went to %s; the batch waiter was queued first but interactive has priority", first)
	}
}

// TestInteractiveReserve: with workers=2 and reserve=1, batch may
// occupy at most one slot even when the second sits idle.
func TestInteractiveReserve(t *testing.T) {
	cfg := Config{InteractiveReserve: 1}
	s := NewScheduler(2, 0, cfg)

	releaseB1 := hog(t, s, "a", LaneBatch)
	// Second batch job must queue: the reserve keeps one slot
	// interactive-only.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := s.Acquire(ctx, "a", LaneBatch); !errors.Is(err, apierr.ErrCanceled) {
		t.Fatalf("second batch job got a slot past the interactive reserve (err=%v)", err)
	}
	// Interactive work takes the reserved slot immediately.
	releaseI := hog(t, s, "a", LaneInteractive)
	releaseI()
	releaseB1()
}

// TestQueueBoundSemantics preserves the engine's MaxQueue contract:
// negative = no queue at all, positive = bound, with ErrQueueFull.
func TestQueueBoundSemantics(t *testing.T) {
	s := NewScheduler(1, -1, Config{})
	done := hog(t, s, "a", LaneInteractive)
	if _, err := s.Acquire(context.Background(), "a", LaneInteractive); !errors.Is(err, apierr.ErrQueueFull) {
		t.Fatalf("MaxQueue<0 with a busy worker: err=%v, want ErrQueueFull", err)
	}
	done()

	s = NewScheduler(1, 1, Config{})
	done = hog(t, s, "a", LaneInteractive)
	var wg sync.WaitGroup
	order := make(chan string, 1)
	acquireN(t, s, &wg, order, "a", LaneInteractive, 1)
	waitQueued(t, s, 1)
	if _, err := s.Acquire(context.Background(), "a", LaneInteractive); !errors.Is(err, apierr.ErrQueueFull) {
		t.Fatalf("queue past MaxQueue: err=%v, want ErrQueueFull", err)
	}
	if got := s.Snapshot().Tenants["a"].Shed; got != 1 {
		t.Fatalf("tenant shed count = %d, want 1", got)
	}
	done()
	wg.Wait()
}

// TestCanceledWaiterIsSkipped: a waiter whose ctx dies while queued is
// dropped, and later grants skip it without cost.
func TestCanceledWaiterIsSkipped(t *testing.T) {
	s := NewScheduler(1, 0, Config{})
	done := hog(t, s, "a", LaneInteractive)

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := s.Acquire(ctx, "a", LaneInteractive)
		errCh <- err
	}()
	waitQueued(t, s, 1)

	var wg sync.WaitGroup
	order := make(chan string, 1)
	acquireN(t, s, &wg, order, "b", LaneInteractive, 1)
	waitQueued(t, s, 2)

	cancel()
	if err := <-errCh; !errors.Is(err, apierr.ErrCanceled) {
		t.Fatalf("canceled waiter: err=%v, want ErrCanceled", err)
	}
	done()
	wg.Wait()
	if got := <-order; got != "b" {
		t.Fatalf("slot went to %s", got)
	}
	snap := s.Snapshot()
	if snap.Dropped != 1 || snap.Tenants["a"].Dropped != 1 {
		t.Fatalf("dropped = %d / tenant a dropped = %d, want 1/1", snap.Dropped, snap.Tenants["a"].Dropped)
	}
	if snap.Queued != 0 {
		t.Fatalf("queued = %d after drain, want 0", snap.Queued)
	}
}

// TestDrainAbandonsBatchKeepsInteractive is the scheduler half of the
// shutdown-ordering satellite: Drain fails queued batch work with
// ErrShuttingDown immediately, keeps scheduling queued interactive
// work, and Halt abandons the rest.
func TestDrainAbandonsBatchKeepsInteractive(t *testing.T) {
	s := NewScheduler(1, 0, Config{})
	done := hog(t, s, "a", LaneInteractive)

	batchErr := make(chan error, 1)
	go func() {
		_, err := s.Acquire(context.Background(), "a", LaneBatch)
		batchErr <- err
	}()
	waitQueued(t, s, 1)
	interactiveOK := make(chan error, 1)
	go func() {
		release, err := s.Acquire(context.Background(), "a", LaneInteractive)
		if err == nil {
			release()
		}
		interactiveOK <- err
	}()
	waitQueued(t, s, 2)

	s.Drain()
	if err := <-batchErr; !errors.Is(err, apierr.ErrShuttingDown) {
		t.Fatalf("queued batch job after Drain: err=%v, want ErrShuttingDown", err)
	}
	select {
	case err := <-interactiveOK:
		t.Fatalf("queued interactive job resolved during drain before the worker freed: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	// New batch work is refused outright during a drain.
	if _, err := s.Acquire(context.Background(), "a", LaneBatch); !errors.Is(err, apierr.ErrShuttingDown) {
		t.Fatalf("new batch job during drain: err=%v, want ErrShuttingDown", err)
	}
	done()
	if err := <-interactiveOK; err != nil {
		t.Fatalf("queued interactive job was not drained: %v", err)
	}

	// Halt abandons whatever interactive work is still queued.
	done = hog(t, s, "a", LaneInteractive)
	go func() {
		_, err := s.Acquire(context.Background(), "a", LaneInteractive)
		interactiveOK <- err
	}()
	waitQueued(t, s, 1)
	s.Halt()
	if err := <-interactiveOK; !errors.Is(err, apierr.ErrShuttingDown) {
		t.Fatalf("queued interactive job after Halt: err=%v, want ErrShuttingDown", err)
	}
	done()
}

// TestQuotaBilling drives the token bucket through a fake clock: burst
// then exhaustion with a usable Retry-After, refill after waiting, and
// complete isolation of an in-quota tenant.
func TestQuotaBilling(t *testing.T) {
	cfg := Config{Tenants: map[string]TenantConfig{"metered": {RatePerSec: 2, Burst: 2}}}
	s := NewScheduler(4, 0, cfg)
	now := time.Unix(1000, 0)
	s.now = func() time.Time { return now }

	for i := 0; i < 2; i++ {
		if err := s.Charge("metered"); err != nil {
			t.Fatalf("charge %d within burst: %v", i, err)
		}
	}
	err := s.Charge("metered")
	if !errors.Is(err, apierr.ErrQuotaExceeded) {
		t.Fatalf("over-burst charge: err=%v, want ErrQuotaExceeded", err)
	}
	var qe *apierr.QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("quota error is %T, not *apierr.QuotaError", err)
	}
	if qe.Tenant != "metered" || qe.RetryAfter <= 0 || qe.RetryAfter > time.Second {
		t.Fatalf("quota error = %+v; want tenant metered and 0 < RetryAfter ≤ 1s at 2 tokens/s", qe)
	}
	// The unmetered default tenant is never shed by someone else's
	// exhausted bucket.
	for i := 0; i < 100; i++ {
		if err := s.Charge(""); err != nil {
			t.Fatalf("in-quota tenant shed by another tenant's quota: %v", err)
		}
	}
	// Tokens accrue while waiting.
	now = now.Add(time.Second)
	if err := s.Charge("metered"); err != nil {
		t.Fatalf("charge after refill: %v", err)
	}
	snap := s.Snapshot()
	if snap.QuotaShed != 1 || snap.Tenants["metered"].QuotaShed != 1 {
		t.Fatalf("quotaShed = %d / tenant = %d, want 1/1", snap.QuotaShed, snap.Tenants["metered"].QuotaShed)
	}
	if got := snap.Tenants[DefaultTenantName].QuotaShed; got != 0 {
		t.Fatalf("default tenant quotaShed = %d, want 0", got)
	}
}

// TestTenantCardinalityBound: past MaxTenants, fresh IDs collapse into
// the shared overflow class instead of growing scheduler state.
func TestTenantCardinalityBound(t *testing.T) {
	cfg := Config{MaxTenants: 4}
	s := NewScheduler(1, 0, cfg)
	for _, id := range []string{"t1", "t2", "t3", "t4", "t5", "t6"} {
		s.Served(id)
	}
	snap := s.Snapshot()
	if _, ok := snap.Tenants[OverflowTenantName]; !ok {
		t.Fatalf("no overflow class after %d tenants: %v", len(snap.Tenants), snap.Tenants)
	}
	if len(snap.Tenants) > 4+1 {
		t.Fatalf("tenant cardinality %d exceeded MaxTenants+overflow: %v", len(snap.Tenants), snap.Tenants)
	}
	if got := snap.Tenants[OverflowTenantName].Served; got < 2 {
		t.Fatalf("overflow class served = %d, want ≥ 2", got)
	}
}
