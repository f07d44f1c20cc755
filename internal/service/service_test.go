package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"regexp"
	"runtime"
	"sync"
	"testing"

	"gpa/internal/apierr"
	"gpa/internal/arch"
	"gpa/internal/cubin"
	"gpa/internal/gpusim"
	"gpa/internal/profiler"
	"gpa/internal/qos"
	"gpa/internal/sass"

	adv "gpa/internal/advisor"
)

const testKernelSrc = `
.module sm_70
.func vecscale global
.line vecscale.cu 5
	MOV R0, 0x0 {S:2}
	S2R R1, SR_TID.X {S:2, W:5}
	IMAD R2, R1, 0x4, RZ {S:4, Q:5}
	IADD R2, R2, c[0x0][0x160] {S:2}
LOOP:
.line vecscale.cu 7
	LDG.E.32 R4, [R2] {S:1, W:0}
.line vecscale.cu 8
	FMUL R5, R4, 2f {S:4, Q:0}
	IADD R2, R2, 0x4 {S:4}
	IADD R0, R0, 0x1 {S:4}
	ISETP P0, R0, 0x40 {S:4}
BR0:	@P0 BRA LOOP {S:5}
	STG.E.32 [R2], R5 {S:1, R:1}
	EXIT {Q:1}
`

// reportOf, adviceOf and profileOf are the Response accessors for
// responses that must have the value: the accessors can fail only on
// shared responses whose stored artifact is gone or malformed.
func reportOf(t testing.TB, r *Response) string {
	t.Helper()
	text, err := r.Report()
	if err != nil {
		t.Fatalf("Report(): %v", err)
	}
	return text
}

func adviceOf(t testing.TB, r *Response) *adv.Advice {
	t.Helper()
	a, err := r.Advice()
	if err != nil {
		t.Fatalf("Advice(): %v", err)
	}
	return a
}

func profileOf(t testing.TB, r *Response) *profiler.Profile {
	t.Helper()
	p, err := r.Profile()
	if err != nil {
		t.Fatalf("Profile(): %v", err)
	}
	return p
}

// resultKey is r's result key in hex: the key of the stage its Kind
// makes terminal.
func resultKey(r *Request) (string, error) {
	var buf keyBuf
	km, err := r.keyMaterial(buf[:0])
	if err != nil {
		return "", err
	}
	key := km.key(km.terminal)
	return hex.EncodeToString(key[:]), nil
}

// build fills r's program and module hash from r.Module, as gpa.Kernel
// memoizes them for the requests it makes.
func build(t testing.TB, r *Request) {
	t.Helper()
	prog, err := gpusim.Load(r.Module)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := cubin.Pack(r.Module)
	if err != nil {
		t.Fatal(err)
	}
	r.Prog, r.ModuleHash = prog, sha256.Sum256(blob)
}

func testRequest(t testing.TB, kind Kind) *Request {
	t.Helper()
	mod, err := sass.Assemble(testKernelSrc)
	if err != nil {
		t.Fatal(err)
	}
	r := &Request{
		Kind:   kind,
		Module: mod,
		Launch: gpusim.LaunchConfig{
			Entry: "vecscale",
			Grid:  gpusim.Dim3{X: 160},
			Block: gpusim.Dim3{X: 256},
		},
		SimSMs: 1,
		Seed:   9,
	}
	build(t, r)
	return r
}

func TestDigestStableAndSensitive(t *testing.T) {
	base := testRequest(t, KindAdvise)
	key1, err := resultKey(base)
	if err != nil {
		t.Fatal(err)
	}
	key2, err := resultKey(base)
	if err != nil {
		t.Fatal(err)
	}
	if key1 == "" || key1 != key2 {
		t.Fatalf("digest not stable: %q vs %q", key1, key2)
	}

	// Normalization: the explicit defaults digest like the zero values.
	norm := testRequest(t, KindAdvise)
	norm.SamplePeriod = 64
	if k, _ := resultKey(norm); k != key1 {
		t.Errorf("explicit default sample period changed the key")
	}
	// Parallelism never affects results, so it must not affect the key.
	par := testRequest(t, KindAdvise)
	par.Parallelism = 8
	if k, _ := resultKey(par); k != key1 {
		t.Errorf("parallelism changed the key")
	}

	// Every result-affecting field must change the key.
	mutations := map[string]func(*Request){
		"kind":     func(r *Request) { r.Kind = KindMeasure },
		"grid":     func(r *Request) { r.Launch.Grid.X = 320 },
		"block":    func(r *Request) { r.Launch.Block.X = 128 },
		"seed":     func(r *Request) { r.Seed = 10 },
		"simSMs":   func(r *Request) { r.SimSMs = 2 },
		"period":   func(r *Request) { r.SamplePeriod = 128 },
		"workload": func(r *Request) { r.WorkloadKey = "wl1" },
	}
	for name, mutate := range mutations {
		r := testRequest(t, KindAdvise)
		mutate(r)
		k, err := resultKey(r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if k == key1 {
			t.Errorf("mutating %s did not change the key", name)
		}
	}
}

// TestGPUModelMutatedAfterFirstUse: the model enters the key by the
// digest of its whole constant table, memoized by the model's value, so
// a model changed after its first use — same pointer, same registry
// key — is another model: another key, another run, another result.
// Changing it back is the first model again.
func TestGPUModelMutatedAfterFirstUse(t *testing.T) {
	ctx := context.Background()
	e := New(Options{Workers: 1})
	r := testRequest(t, KindMeasure)
	r.GPU = arch.VoltaV100()
	key64, err := resultKey(r)
	if err != nil {
		t.Fatal(err)
	}
	resp64, err := e.Do(ctx, r)
	if err != nil {
		t.Fatal(err)
	}

	mshrs := r.GPU.MSHRsPerSM
	r.GPU.MSHRsPerSM = 1
	key1, err := resultKey(r)
	if err != nil {
		t.Fatal(err)
	}
	if key1 == key64 {
		t.Fatal("a model mutated after its first digest kept its key")
	}
	resp1, err := e.Do(ctx, r)
	if err != nil {
		t.Fatal(err)
	}
	if resp1.Cached || resp1.Cycles <= resp64.Cycles {
		t.Errorf("the %d-MSHR model answered for the 1-MSHR one: cached=%v cycles=%d (with %d MSHRs: %d)",
			mshrs, resp1.Cached, resp1.Cycles, mshrs, resp64.Cycles)
	}

	r.GPU.MSHRsPerSM = mshrs
	if key, _ := resultKey(r); key != key64 {
		t.Error("the model changed back digests differently than it first did")
	}
	if back, err := e.Do(ctx, r); err != nil || !back.Cached || back.Cycles != resp64.Cycles {
		t.Errorf("the model changed back: %+v, %v; want the first result, from memory", back, err)
	}
}

func TestDigestModuleContent(t *testing.T) {
	r1 := testRequest(t, KindAdvise)
	k1, _ := resultKey(r1)
	mod2, err := sass.Assemble(testKernelSrc)
	if err != nil {
		t.Fatal(err)
	}
	r2 := testRequest(t, KindAdvise)
	r2.Module = mod2 // distinct pointer, identical content
	build(t, r2)
	k2, _ := resultKey(r2)
	if k1 != k2 {
		t.Errorf("identical module content digests differently")
	}
}

// TestUnkeyedRequestsRefused: the engine serves only requests it can
// key as they arrive. One with a Workload no WorkloadKey names, without
// its program, or without its module hash fails with ErrBadKernel
// before any tier or run.
func TestUnkeyedRequestsRefused(t *testing.T) {
	wl, err := (&gpusim.Spec{}).Bind(testRequest(t, KindMeasure).Prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		unset func(*Request)
	}{
		{"workload without key", func(r *Request) { r.Workload = wl }},
		{"no program", func(r *Request) { r.Prog = nil }},
		{"no module hash", func(r *Request) { r.ModuleHash = [32]byte{} }},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := testRequest(t, KindMeasure)
			c.unset(r)
			if _, err := resultKey(r); !errors.Is(err, apierr.ErrBadKernel) {
				t.Errorf("keyMaterial: %v, want ErrBadKernel", err)
			}
			// The tenant's quota holds one token: a refusal must not
			// spend it, so the well-formed request after it is served.
			cfg := qos.Config{Tenants: map[string]qos.TenantConfig{"metered": {RatePerSec: 0.001, Burst: 1}}}
			e := New(Options{Workers: 1, QoS: &cfg})
			r.Tenant = "metered"
			if resp, err := e.Do(context.Background(), r); !errors.Is(err, apierr.ErrBadKernel) || resp != nil {
				t.Errorf("Do = %v, %v; want nil and ErrBadKernel", resp, err)
			}
			if st := e.Stats(); st.Runs != 0 || st.Misses != 0 || st.Hits != 0 || st.StageMisses != 0 {
				t.Errorf("runs=%d misses=%d hits=%d stageMisses=%d, want a refusal before any tier or run",
					st.Runs, st.Misses, st.Hits, st.StageMisses)
			}
			ok := testRequest(t, KindMeasure)
			ok.Tenant = "metered"
			if _, err := e.Do(context.Background(), ok); err != nil {
				t.Errorf("well-formed request after a refusal: %v (the refusal was billed)", err)
			}
		})
	}
}

func TestCacheHitByteIdentical(t *testing.T) {
	e := New(Options{Workers: 2})
	cold, err := e.Do(context.Background(), testRequest(t, KindAdvise))
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cached {
		t.Fatal("first run must be a miss")
	}
	if reportOf(t, cold) == "" || adviceOf(t, cold) == nil {
		t.Fatal("advise response incomplete")
	}
	if profileOf(t, cold) != nil {
		t.Error("an advise response hands out a profile: it is the profile stage's")
	}
	warm, err := e.Do(context.Background(), testRequest(t, KindAdvise))
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Fatal("second run must hit the cache")
	}
	if reportOf(t, warm) != reportOf(t, cold) {
		t.Errorf("cached report differs from cold run")
	}
	if warm.ProfileDigest != cold.ProfileDigest {
		t.Errorf("cached profile digest differs from cold run")
	}
	if warm.Cycles != cold.Cycles {
		t.Errorf("cached cycles %d != cold %d", warm.Cycles, cold.Cycles)
	}
	st := e.Stats()
	if st.Runs != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 run, 1 hit, 1 miss", st)
	}
}

func TestSingleflightCoalesces(t *testing.T) {
	e := New(Options{Workers: 4})
	const n = 16
	resps := make([]*Response, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = e.Do(context.Background(), testRequest(t, KindAdvise))
		}(i)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
	}
	st := e.Stats()
	if st.Runs != 1 {
		t.Fatalf("%d identical concurrent requests ran %d simulations, want 1 (stats %+v)",
			n, st.Runs, st)
	}
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1", st.Misses)
	}
	if st.Hits+st.Coalesced != n-1 {
		t.Errorf("hits+coalesced = %d, want %d", st.Hits+st.Coalesced, n-1)
	}
	leaders := 0
	for i := range resps {
		if reportOf(t, resps[i]) != reportOf(t, resps[0]) {
			t.Fatalf("response %d differs", i)
		}
		// Exactly the leader is uncached.
		if !resps[i].Cached {
			leaders++
		}
	}
	if leaders != 1 {
		t.Errorf("%d uncached responses, want 1", leaders)
	}
}

func TestDoAllMixedKinds(t *testing.T) {
	// Nothing kept in memory: the runs==3 pin below requires that the
	// concurrent advise job can never ride the profile job's freshly
	// published profile-stage artifact.
	e := New(Options{CacheEntries: -1})
	reqs := []*Request{
		testRequest(t, KindMeasure),
		testRequest(t, KindProfile),
		testRequest(t, KindAdvise),
	}
	resps, errs := e.DoAll(context.Background(), reqs)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("req %d: %v", i, err)
		}
	}
	if resps[0].Cycles <= 0 {
		t.Error("measure: no cycles")
	}
	if profileOf(t, resps[1]) == nil || resps[1].ProfileDigest == "" {
		t.Error("profile: missing profile or digest")
	}
	if a := adviceOf(t, resps[2]); a == nil || len(a.Entries) == 0 {
		t.Error("advise: no ranked entries")
	}
	// Kinds terminate in different stages, so all three simulated.
	if st := e.Stats(); st.Runs != 3 {
		t.Errorf("runs = %d, want 3", st.Runs)
	}
}

func TestErrorsNotCached(t *testing.T) {
	e := New(Options{Workers: 1})
	r := testRequest(t, KindMeasure)
	r.Launch.Entry = "missing"
	if _, err := e.Do(context.Background(), r); err == nil {
		t.Fatal("expected error for unknown entry")
	}
	if _, err := e.Do(context.Background(), r); err == nil {
		t.Fatal("expected error again (errors must not be cached)")
	}
	st := e.Stats()
	if st.Errors != 2 || st.Runs != 2 || st.Hits != 0 {
		t.Errorf("stats = %+v, want 2 uncached errors", st)
	}
}

// panicWorkload is a caller-supplied workload with a bug in it; the
// simulator first meets it while building its run tables, on the
// goroutine that called gpusim.Run.
type panicWorkload struct{}

func (panicWorkload) Taken(gpusim.WarpCtx, int, int) bool { panic("workload bug") }
func (panicWorkload) Latency(gpusim.WarpCtx, int) int     { panic("workload bug") }
func (panicWorkload) Transactions(int) int                { panic("workload bug") }

// smPanicWorkload keeps its bug for the per-warp callbacks, which run
// inside the simulation of an SM — on a worker goroutine of its own
// when the run fans out.
type smPanicWorkload struct{ gpusim.NopWorkload }

func (smPanicWorkload) Taken(gpusim.WarpCtx, int, int) bool { panic("workload bug") }
func (smPanicWorkload) Latency(gpusim.WarpCtx, int) int     { panic("workload bug") }

// TestPanicContainedAtFlightBoundary: a flight that panics fails its
// own waiters with a typed error and nothing else. Every path a flight
// runs is covered: the run on the flight's goroutine, shared by two
// waiters and alone, with the panic inside the Workload the simulator
// calls into from either place it does (the goroutine that called it,
// and the SM worker goroutines of a fanned-out run), and the leader's
// disk probe on the caller's own
// goroutine, with the panic in the stage decoder. The panic is counted
// and never cached; an unrelated request running beside a run answers
// exactly as on an undisturbed engine.
func TestPanicContainedAtFlightBoundary(t *testing.T) {
	t.Run("caller goroutine", func(t *testing.T) {
		testPanicContained(t, 1, 1, panicWorkload{})
	})
	t.Run("SM worker goroutine", func(t *testing.T) {
		prev := runtime.GOMAXPROCS(2) // Parallelism is capped by it
		defer runtime.GOMAXPROCS(prev)
		testPanicContained(t, 4, 2, smPanicWorkload{})
	})
	t.Run("disk probe", func(t *testing.T) {
		const n = 4
		e, resps, errs := diskOnlyFlight(t, n, func(stageID, []byte, string) (*Response, error) { panic("decoder bug") })
		for i, err := range errs {
			if !errors.Is(err, apierr.ErrInternal) || resps[i] != nil {
				t.Errorf("waiter %d = %v, %v; want nil and ErrInternal", i, resps[i], err)
			}
		}
		if st := e.Stats(); st.Panics != 1 || st.Misses != 1 || st.Coalesced != n-1 || st.StageServed != 0 || st.Inflight != 0 {
			t.Errorf("panics=%d misses=%d coalesced=%d stageServed=%d inflight=%d, want one contained panic shared by %d waiters",
				st.Panics, st.Misses, st.Coalesced, st.StageServed, st.Inflight, n)
		}
		// Nothing was cached: the repeat reads the blob again and serves it.
		if resp, err := e.Do(context.Background(), testRequest(t, KindAdvise)); err != nil || !resp.Cached {
			t.Fatalf("repeat after the contained panic: %v", err)
		}
		if st := e.Stats(); st.Hits != 0 || st.StoreHits != 2 || st.StageServed != 1 || st.Runs != 0 {
			t.Errorf("repeat: hits=%d storeHits=%d stageServed=%d runs=%d, want 0/2/1/0", st.Hits, st.StoreHits, st.StageServed, st.Runs)
		}
	})
}

func testPanicContained(t *testing.T, simSMs, parallelism int, buggy gpusim.Workload) {
	request := func(kind Kind) *Request {
		r := testRequest(t, kind)
		r.SimSMs, r.Parallelism = simSMs, parallelism
		return r
	}
	ctx := context.Background()
	want, err := New(Options{Workers: 2}).Do(ctx, request(KindAdvise))
	if err != nil {
		t.Fatal(err)
	}

	e := New(Options{Workers: 2})
	keyed := request(KindAdvise)
	keyed.Workload, keyed.WorkloadKey = buggy, "buggy"
	other := request(KindAdvise)
	other.Workload, other.WorkloadKey = buggy, "buggy, another flight"
	// Two waiters on one flight, one on another, one bystander.
	reqs := []*Request{keyed, keyed, other, request(KindAdvise)}
	resps, errs := e.DoAll(ctx, reqs)
	for i := range 3 {
		if !errors.Is(errs[i], apierr.ErrInternal) || resps[i] != nil {
			t.Errorf("panicking request %d = %v, %v; want nil and ErrInternal", i, resps[i], errs[i])
		}
	}
	got := resps[3]
	if errs[3] != nil {
		t.Fatalf("bystander failed: %v", errs[3])
	}
	if reportOf(t, got) != reportOf(t, want) || got.ProfileDigest != want.ProfileDigest || got.Cycles != want.Cycles {
		t.Error("bystander's result differs from an undisturbed run's")
	}
	// Its wire bytes too, but for the one field that times the run.
	elapsed := regexp.MustCompile(`"elapsedMs":[^,]+,`)
	gt, wt := got.Tail(), want.Tail()
	if !bytes.Equal(elapsed.ReplaceAll(gt, nil), elapsed.ReplaceAll(wt, nil)) {
		t.Error("bystander's wire tail differs from an undisturbed run's")
	}
	if n := len(elapsed.FindAll(gt, -1)); n != 1 {
		t.Errorf("masked %d elapsedMs fields of the tail, want 1", n)
	}

	if _, err := e.Do(ctx, keyed); !errors.Is(err, apierr.ErrInternal) {
		t.Errorf("repeat of the panicking request = %v, want ErrInternal again (never cached)", err)
	}
	st := e.Stats()
	// The two coalesced waiters shared one run, unless the second arrived
	// after the first had already failed.
	if st.Panics < 3 || st.Panics > 4 || st.Hits != 0 || st.Inflight != 0 {
		t.Errorf("panics=%d hits=%d inflight=%d, want 3 or 4 contained panics, none of them ever served from memory, nothing in flight",
			st.Panics, st.Hits, st.Inflight)
	}
	// The worker slots came back: the engine still serves.
	if _, err := e.Do(ctx, request(KindMeasure)); err != nil {
		t.Fatalf("engine unusable after contained panics: %v", err)
	}
}

func TestLRUEviction(t *testing.T) {
	// CacheEntries is the one bound, per stage: three measure artifacts
	// over one module contend for two slots of the measure stage.
	e := New(Options{Workers: 1, CacheEntries: 2})
	for i := 0; i < 3; i++ {
		r := testRequest(t, KindMeasure)
		r.Seed = uint64(i)
		if _, err := e.Do(context.Background(), r); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Stats(); st.StageEvictions != 1 {
		t.Fatalf("stats = %+v, want 1 eviction", st)
	}
	// Seed 2 is still resident.
	r2 := testRequest(t, KindMeasure)
	r2.Seed = 2
	resp2, err := e.Do(context.Background(), r2)
	if err != nil {
		t.Fatal(err)
	}
	if !resp2.Cached {
		t.Error("resident entry missed the cache")
	}
	// Seed 0 was evicted (least recently used): a repeat re-runs.
	r := testRequest(t, KindMeasure)
	r.Seed = 0
	resp, err := e.Do(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Error("evicted entry served from cache")
	}
	if st := e.Stats(); st.Runs != 4 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 4 runs and 1 hit", st)
	}
}

func TestCacheDisabled(t *testing.T) {
	// No memory tier and no disk: repeats must re-run and never report
	// Cached.
	e := New(Options{Workers: 1, CacheEntries: -1})
	for i := 0; i < 2; i++ {
		resp, err := e.Do(context.Background(), testRequest(t, KindMeasure))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Cached {
			t.Error("cache disabled but response marked cached")
		}
	}
	if st := e.Stats(); st.Runs != 2 || st.Hits != 0 || st.StageHits != 0 {
		t.Errorf("stats = %+v, want 2 runs with no cache", st)
	}
}

// TestAdviseFeedsProfile is TestProfileFeedsAdvise the other way round:
// an advise run puts the profile it blamed to disk as the profile
// stage's own artifact, so a profile request over the same inputs is
// served from there — not a run, and not another simulation — and
// decodes to the profile the advice blamed.
func TestAdviseFeedsProfile(t *testing.T) {
	e := newDiskEngine(t, t.TempDir())
	advResp, err := e.Do(context.Background(), testRequest(t, KindAdvise))
	if err != nil {
		t.Fatal(err)
	}
	profResp, err := e.Do(context.Background(), testRequest(t, KindProfile))
	if err != nil {
		t.Fatal(err)
	}
	if !profResp.Cached || profResp.Kind != KindProfile || profResp.ProfileDigest != advResp.ProfileDigest {
		t.Errorf("profile after advise: cached=%v kind=%v digest match=%v", profResp.Cached, profResp.Kind,
			profResp.ProfileDigest == advResp.ProfileDigest)
	}
	if d, err := profileOf(t, profResp).Digest(); err != nil || d != advResp.ProfileDigest {
		t.Errorf("the served profile digests to %.16s (%v), the advice blamed %.16s", d, err, advResp.ProfileDigest)
	}
	if want, _ := resultKey(testRequest(t, KindProfile)); profResp.Key != want || profResp.Key == advResp.Key {
		t.Errorf("profile response key %.16s, want the profile stage's %.16s", profResp.Key, want)
	}
	if st := e.Stats(); st.StageServed != 1 || st.Runs != 1 || st.Sims != 1 {
		t.Errorf("stageServed=%d runs=%d sims=%d, want 1/1/1", st.StageServed, st.Runs, st.Sims)
	}
}

// TestMissWhileFlightLands: the memory tier and the flight table are
// under two locks, so a request can miss memory, lose the processor
// while an identical flight publishes its artifact and unlinks itself,
// and then find no flight to join. It must notice and look again: it is
// answered from memory, never simulates a second time, and is never
// counted a miss. The hook puts a whole identical request, start to
// landing, between the two looks.
func TestMissWhileFlightLands(t *testing.T) {
	e := New(Options{Workers: 1})
	ctx := context.Background()
	var between *Response
	e.afterMiss = func() {
		e.afterMiss = nil
		var err error
		if between, err = e.Do(ctx, testRequest(t, KindAdvise)); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := e.Do(ctx, testRequest(t, KindAdvise))
	if err != nil {
		t.Fatal(err)
	}
	if between == nil || between.Cached || !resp.Cached {
		t.Fatalf("cached: the request in between %v, the one around it %v; want false, true", between != nil && between.Cached, resp.Cached)
	}
	if reportOf(t, resp) != reportOf(t, between) {
		t.Error("the late request was not served the landed flight's shared view")
	}
	if st := e.Stats(); st.Sims != 1 || st.Runs != 1 || st.Misses != 1 || st.Hits != 1 {
		t.Errorf("sims=%d runs=%d misses=%d hits=%d, want 1 of each", st.Sims, st.Runs, st.Misses, st.Hits)
	}
}

func TestKindRoundTrip(t *testing.T) {
	for _, k := range []Kind{KindMeasure, KindProfile, KindAdvise} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if k, err := ParseKind(""); err != nil || k != KindAdvise {
		t.Errorf("empty kind must default to advise, got %v, %v", k, err)
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("bogus kind must fail")
	}
}

func TestParallelismMatchesSequential(t *testing.T) {
	seq := New(Options{Workers: 1})
	par := New(Options{Workers: 8})
	rseq := testRequest(t, KindAdvise)
	rpar := testRequest(t, KindAdvise)
	rpar.Parallelism = 4
	a, err := seq.Do(context.Background(), rseq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := par.Do(context.Background(), rpar)
	if err != nil {
		t.Fatal(err)
	}
	if reportOf(t, a) != reportOf(t, b) || a.ProfileDigest != b.ProfileDigest {
		t.Error("parallel SM simulation changed the advise response")
	}
	if a.Key != b.Key {
		t.Error("parallelism leaked into the digest")
	}
}
