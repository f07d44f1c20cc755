package service

// Tenant-fairness and admission contract tests: tenant/lane metadata
// never reaches a digest, two tenants share one flight but both get
// billed and counted, DWRR keeps a flooding tenant from starving an
// equal-weight one, quotas isolate tenants from each other, and
// Shutdown drains the interactive lane before abandoning batch work.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gpa/internal/apierr"
	"gpa/internal/gpusim"
	"gpa/internal/qos"
)

func TestTenantExcludedFromDigest(t *testing.T) {
	a := testRequest(t, KindAdvise)
	b := testRequest(t, KindAdvise)
	b.Tenant = "tenant-b"
	b.Lane = qos.LaneBatch
	c := testRequest(t, KindAdvise)
	c.Tenant = "another-tenant-entirely"

	da, err := resultKey(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := resultKey(b)
	if err != nil {
		t.Fatal(err)
	}
	dc, err := resultKey(c)
	if err != nil {
		t.Fatal(err)
	}
	if da == "" {
		t.Fatal("empty digest for cacheable request")
	}
	if da != db || db != dc {
		t.Fatalf("tenant/lane leaked into the digest: %s / %s / %s", da, db, dc)
	}

	// Stage keys must exclude them too: one tenant's run warms the
	// artifacts every other tenant reads.
	if keysOf(t, a) != keysOf(t, b) {
		t.Fatal("tenant/lane leaked into stage keys")
	}
}

// TestCrossTenantSingleflight: two tenants requesting the same kernel
// concurrently share ONE simulation — and both tenants' served
// accounting still sees their own request.
func TestCrossTenantSingleflight(t *testing.T) {
	e := New(Options{Workers: 2})
	base := testRequest(t, KindAdvise)

	var wg sync.WaitGroup
	resps := make([]*Response, 2)
	for i, tenant := range []string{"alpha", "beta"} {
		wg.Add(1)
		go func(i int, tenant string) {
			defer wg.Done()
			r := *base
			r.Tenant = tenant
			resp, err := e.Do(context.Background(), &r)
			if err != nil {
				t.Errorf("tenant %s: %v", tenant, err)
				return
			}
			resps[i] = resp
		}(i, tenant)
	}
	wg.Wait()

	st := e.Stats()
	if st.Runs != 1 {
		t.Fatalf("runs = %d, want 1 (tenants must not split the flight)", st.Runs)
	}
	if resps[0] == nil || resps[1] == nil || reportOf(t, resps[0]) != reportOf(t, resps[1]) {
		t.Fatal("cross-tenant responses differ")
	}
	if a, b := st.Tenants["alpha"].Served, st.Tenants["beta"].Served; a != 1 || b != 1 {
		t.Fatalf("served alpha=%d beta=%d, want 1/1 (the shared run is credited to both)", a, b)
	}
}

// grantRecorder is a Workload that reports the first call the simulator
// makes into it. The call happens inside the request's worker slot, so
// on a one-worker engine the reports arrive in grant order — unlike
// anything recorded after Do returns, which also measures which caller
// goroutine the Go scheduler happened to wake first.
type grantRecorder struct {
	gpusim.NopWorkload
	once    sync.Once
	granted func()
}

func (g *grantRecorder) Transactions(pc int) int {
	g.once.Do(g.granted)
	return g.NopWorkload.Transactions(pc)
}

// TestTenantFairnessUnderSaturation is the engine half of the ISSUE's
// fairness pin, run under -race by CI: a 10:1 offered-load imbalance
// between two equal-weight tenants on a saturated single worker is
// granted ~1:1 while both are backlogged — tenant b's whole backlog is
// admitted within a 1.5:1 tolerance instead of waiting behind tenant
// a's flood.
func TestTenantFairnessUnderSaturation(t *testing.T) {
	e := New(Options{Workers: 1})
	// Occupy the single worker slot directly at the scheduler so every
	// request below queues before any grant happens.
	release, err := e.adm.Acquire(context.Background(), "hog", qos.LaneInteractive)
	if err != nil {
		t.Fatal(err)
	}

	const aJobs, bJobs = 30, 3
	var mu sync.Mutex
	var grants []string
	var wg sync.WaitGroup
	enqueue := func(tenant string, n int) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := testRequest(t, KindMeasure)
				r.Tenant = tenant
				// A key of its own for each job: no two coalesce.
				r.WorkloadKey = fmt.Sprintf("grant %s %d", tenant, i)
				r.Workload = &grantRecorder{granted: func() {
					mu.Lock()
					grants = append(grants, tenant)
					mu.Unlock()
				}}
				if _, err := e.Do(context.Background(), r); err != nil {
					t.Errorf("tenant %s: %v", tenant, err)
				}
			}()
		}
	}
	enqueue("a", aJobs)
	waitForQueued(t, e, aJobs)
	enqueue("b", bJobs)
	waitForQueued(t, e, aJobs+bJobs)

	release()
	wg.Wait()

	aBeforeLastB, bSeen := 0, 0
	for _, tenant := range grants {
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
		t.Fatalf("tenant b was granted %d of %d jobs: %v", bSeen, bJobs, grants)
	}
	// Strict DWRR alternation yields aBeforeLastB == bJobs; allow the
	// 1.5:1 ISSUE tolerance.
	tolerance := 1.5
	if max := int(tolerance * bJobs); aBeforeLastB > max {
		t.Fatalf("tenant a was granted %d jobs before tenant b's backlog of %d drained (want ≤ %d): offered load leaked into grants: %v",
			aBeforeLastB, bJobs, max, grants)
	}
}

// waitForQueued polls engine stats until the admission queue holds n.
func waitForQueued(t *testing.T, e *Engine, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for e.Stats().Queued != n {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d (at %d)", n, e.Stats().Queued)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestQuotaIsolation: an over-quota tenant is shed with a usable
// Retry-After while an in-quota tenant is never shed — not once.
func TestQuotaIsolation(t *testing.T) {
	cfg := qos.Config{Tenants: map[string]qos.TenantConfig{"metered": {RatePerSec: 0.001, Burst: 1}}}
	e := New(Options{Workers: 2, QoS: &cfg})

	r := testRequest(t, KindMeasure)
	r.Tenant = "metered"
	if _, err := e.Do(context.Background(), r); err != nil {
		t.Fatalf("first metered request (within burst): %v", err)
	}
	_, err := e.Do(context.Background(), r)
	if !errors.Is(err, apierr.ErrQuotaExceeded) {
		t.Fatalf("over-quota request: err=%v, want ErrQuotaExceeded", err)
	}
	var qe *apierr.QuotaError
	if !errors.As(err, &qe) || qe.RetryAfter <= 0 {
		t.Fatalf("quota error carries no Retry-After: %v", err)
	}

	// The in-quota tenant keeps being served — cache hits included,
	// each one billed to ITS bucket, never metered's.
	for i := 0; i < 20; i++ {
		r2 := testRequest(t, KindMeasure)
		r2.Tenant = "free"
		if _, err := e.Do(context.Background(), r2); err != nil {
			t.Fatalf("in-quota tenant shed on request %d while another tenant was over quota: %v", i, err)
		}
	}
	st := e.Stats()
	if st.QuotaShed != 1 || st.Tenants["metered"].QuotaShed != 1 {
		t.Fatalf("quotaShed = %d (metered %d), want 1", st.QuotaShed, st.Tenants["metered"].QuotaShed)
	}
	if st.Shed != 0 || st.Tenants["free"].QuotaShed != 0 {
		t.Fatalf("in-quota tenant took collateral sheds: shed=%d freeQuotaShed=%d", st.Shed, st.Tenants["free"].QuotaShed)
	}
	if st.Tenants["free"].Served != 20 {
		t.Fatalf("free tenant served = %d, want 20", st.Tenants["free"].Served)
	}
}

// TestShutdownDrainsInteractiveAbandonsBatch pins the drain-ordering
// satellite: Shutdown fails queued batch work with ErrShuttingDown
// immediately but keeps scheduling queued interactive work until done.
func TestShutdownDrainsInteractiveAbandonsBatch(t *testing.T) {
	e := New(Options{Workers: 1})
	release, err := e.adm.Acquire(context.Background(), "hog", qos.LaneInteractive)
	if err != nil {
		t.Fatal(err)
	}

	batchErr := make(chan error, 1)
	go func() {
		r := testRequest(t, KindMeasure)
		r.Seed = 101
		r.Lane = qos.LaneBatch
		_, err := e.Do(context.Background(), r)
		batchErr <- err
	}()
	waitForQueued(t, e, 1)
	interactiveErr := make(chan error, 1)
	go func() {
		r := testRequest(t, KindMeasure)
		r.Seed = 102
		_, err := e.Do(context.Background(), r)
		interactiveErr <- err
	}()
	waitForQueued(t, e, 2)

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- e.Shutdown(context.Background()) }()

	// The queued batch job is abandoned promptly, while the worker is
	// still occupied.
	select {
	case err := <-batchErr:
		if !errors.Is(err, apierr.ErrShuttingDown) {
			t.Fatalf("queued batch job: err=%v, want ErrShuttingDown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued batch job was not abandoned by the drain")
	}
	select {
	case err := <-interactiveErr:
		t.Fatalf("queued interactive job resolved before the worker freed: %v", err)
	default:
	}

	release()
	if err := <-interactiveErr; err != nil {
		t.Fatalf("queued interactive job was abandoned instead of drained: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// fanOutProbe is a Workload that tells whether a run fanned its SMs
// out. gpusim reads Transactions on the goroutine that called Run while
// it builds the run tables, then simulates the SMs there when one
// worker takes them all, or on worker goroutines of their own when
// several do; Latency runs wherever an SM is simulated.
type fanOutProbe struct {
	gpusim.NopWorkload
	mu     sync.Mutex
	runG   string
	fanned bool
}

// goroutineID is the calling goroutine's number, read off the first
// line of its stack trace ("goroutine 12 [running]:").
func goroutineID() string {
	var buf [32]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

func (f *fanOutProbe) Transactions(pc int) int {
	f.mu.Lock()
	f.runG = goroutineID()
	f.mu.Unlock()
	return f.NopWorkload.Transactions(pc)
}

func (f *fanOutProbe) Latency(w gpusim.WarpCtx, pc int) int {
	f.mu.Lock()
	f.fanned = f.fanned || goroutineID() != f.runG
	f.mu.Unlock()
	return f.NopWorkload.Latency(w, pc)
}

// TestFanOutRule pins how a run's default Parallelism is resolved at
// grant time: max(1, GOMAXPROCS - others), with others the runs
// holding another worker slot, and gpusim capping it by SimSMs. On two
// procs a lone run fans out (also under -workers 1, where a 1 + idle
// slots rule would not), a run granted beside another takes one core,
// and an explicit Parallelism is never changed.
func TestFanOutRule(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, c := range []struct{ requested, others, want int }{
		{0, 0, 2}, {0, 1, 1}, {0, 3, 1}, {2, 1, 2}, {1, 0, 1}, {5, 0, 5},
	} {
		if got := fanOut(c.requested, c.others); got != c.want {
			t.Errorf("fanOut(%d, %d) = %d on 2 procs, want %d", c.requested, c.others, got, c.want)
		}
	}

	cases := []struct {
		name                      string
		workers, simSMs, parallel int
		hog                       bool // another run holds a slot
		fanned                    bool
	}{
		{"lone run", 2, 2, 0, false, true},
		{"lone run over one SM", 2, 1, 0, false, false},
		{"beside another run", 2, 2, 0, true, false},
		{"lone run, one worker slot", 1, 2, 0, false, true},
		{"explicit 2 beside another run", 2, 2, 2, true, true},
		{"explicit 1, lone", 2, 2, 1, false, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := New(Options{Workers: c.workers})
			if c.hog {
				release, err := e.adm.Acquire(context.Background(), "hog", qos.LaneInteractive)
				if err != nil {
					t.Fatal(err)
				}
				defer release()
			}
			r := testRequest(t, KindMeasure)
			r.SimSMs, r.Parallelism = c.simSMs, c.parallel
			probe := &fanOutProbe{}
			r.Workload, r.WorkloadKey = probe, "fan-out probe"
			if _, err := e.Do(context.Background(), r); err != nil {
				t.Fatal(err)
			}
			if probe.fanned != c.fanned {
				t.Errorf("run fanned out = %v, want %v", probe.fanned, c.fanned)
			}
		})
	}
}
