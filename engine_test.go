package gpa_test

import (
	"context"
	"sync"
	"testing"

	"gpa"
	"gpa/internal/kernels"
)

// reportOf is JobResult.Report for results that must have one: the
// accessor can fail only on cached results whose stored artifact is gone.
func reportOf(t testing.TB, res gpa.JobResult) *gpa.Report {
	t.Helper()
	rep, err := res.Report()
	if err != nil {
		t.Fatalf("Report(): %v", err)
	}
	return rep
}

func TestEngineAdviseMatchesDirectAPI(t *testing.T) {
	k, opts := apiKernel(t)
	direct, err := k.Advise(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	eng := gpa.NewEngine(nil)
	res := eng.Do(context.Background(), gpa.Job{Kind: gpa.JobAdvise, Kernel: k, Options: opts, WorkloadKey: "api"})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if reportOf(t, res).String() != direct.String() {
		t.Error("engine advise report differs from Kernel.Advise")
	}
	if res.Cached {
		t.Error("first engine run must not be cached")
	}
	warm := eng.Do(context.Background(), gpa.Job{Kind: gpa.JobAdvise, Kernel: k, Options: opts, WorkloadKey: "api"})
	if warm.Err != nil {
		t.Fatal(warm.Err)
	}
	if !warm.Cached {
		t.Error("second engine run must hit the cache")
	}
	if reportOf(t, warm).String() != direct.String() {
		t.Error("cached engine report differs from Kernel.Advise")
	}
	// The run's own result carries the analysis context, whichever of
	// the two asks for its Report first; the cached one does not.
	if reportOf(t, warm).Context != nil {
		t.Error("a cache hit's report carries a Context")
	}
	if ctx := reportOf(t, res).Context; ctx == nil || ctx.Profile == nil {
		t.Error("the leader's report lost its Context")
	}
	// The leader's report points at its run's structs, the hit's at what
	// the stored bytes decode to: equal content, and every hit shares one
	// decode.
	mustEqualJSON(t, "advice", reportOf(t, res).Advice, reportOf(t, warm).Advice)
	mustEqualJSON(t, "profile", reportOf(t, res).Profile, reportOf(t, warm).Profile)
	if reportOf(t, warm).Advice != reportOf(t, warm).Advice {
		t.Error("two reports of one cache hit do not share one advice")
	}
	if n := eng.Stats().StageDecodes; n != 2 {
		t.Errorf("stageDecodes = %d, want 2 (the hit's advice and profile, once each)", n)
	}
}

func TestEngineMeasureAndProfile(t *testing.T) {
	k, opts := apiKernel(t)
	eng := gpa.NewEngine(nil)
	res := eng.DoAll(context.Background(), []gpa.Job{
		{Kind: gpa.JobMeasure, Kernel: k, Options: opts, WorkloadKey: "api"},
		{Kind: gpa.JobProfile, Kernel: k, Options: opts, WorkloadKey: "api"},
	})
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
	}
	cycles, err := k.Measure(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Cycles != cycles {
		t.Errorf("engine measure %d cycles, direct %d", res[0].Cycles, cycles)
	}
	prof, err := k.Profile(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := prof.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if res[1].ProfileDigest != want {
		t.Error("engine profile digest differs from direct Kernel.Profile")
	}
}

func TestEngineWorkloadWithoutKeyBypasses(t *testing.T) {
	k, opts := apiKernel(t) // opts carries a workload
	eng := gpa.NewEngine(nil)
	res := eng.Do(context.Background(), gpa.Job{Kind: gpa.JobMeasure, Kernel: k, Options: opts})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Key != "" || res.Cached {
		t.Errorf("workload without key must bypass the cache (key %q, cached %v)",
			res.Key, res.Cached)
	}
	if st := eng.Stats(); st.Bypass != 1 {
		t.Errorf("stats = %+v, want 1 bypass", st)
	}
}

func TestEngineSweep(t *testing.T) {
	k, opts := apiKernel(t)
	eng := gpa.NewEngine(nil)
	jobs, res := eng.Sweep(context.Background(), gpa.Job{Kind: gpa.JobAdvise, Kernel: k, Options: opts,
		WorkloadKey: "api"}, nil)
	if len(jobs) != len(gpa.GPUs()) || len(res) != len(jobs) {
		t.Fatalf("sweep covered %d archs, want %d", len(res), len(gpa.GPUs()))
	}
	seen := map[string]bool{}
	for i, r := range res {
		arch := jobs[i].Arch()
		if want := gpa.GPUName(gpa.GPUs()[i]); arch != want || jobs[i].Lane != gpa.LaneBatch {
			t.Fatalf("job %d runs on %s, lane %v; want %s, the batch lane", i, arch, jobs[i].Lane, want)
		}
		if r.Err != nil {
			t.Fatalf("%s: %v", arch, r.Err)
		}
		if rep := reportOf(t, r); rep == nil || len(rep.Advice.Entries) == 0 {
			t.Fatalf("%s: no advice", arch)
		}
		if seen[r.Key] {
			t.Fatalf("%s: duplicate cache key across architectures", arch)
		}
		seen[r.Key] = true
	}
}

// TestEngineTable3CacheByteIdentical is the PR's cache-correctness
// acceptance test: for every Table 3 kernel, a cached engine response
// is byte-identical to a cold sequential run through the plain API,
// and N identical concurrent jobs cost exactly one simulation.
func TestEngineTable3CacheByteIdentical(t *testing.T) {
	rows := kernels.All()
	if testing.Short() {
		rows = rows[:3]
	}
	for _, b := range rows {
		k, wl, err := b.Base.Build()
		if err != nil {
			t.Fatal(err)
		}
		opts := &gpa.Options{Workload: wl, Seed: 11, SimSMs: 1, Parallelism: 1}
		cold, err := k.Advise(context.Background(), opts)
		if err != nil {
			t.Fatalf("%s: %v", b.ID(), err)
		}
		want := cold.String()

		eng := gpa.NewEngine(nil)
		job := gpa.Job{Kind: gpa.JobAdvise, Kernel: k, Options: opts,
			WorkloadKey: b.ID() + "/base"}

		// N identical concurrent jobs...
		const n = 8
		var wg sync.WaitGroup
		res := make([]gpa.JobResult, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				res[i] = eng.Do(context.Background(), job)
			}(i)
		}
		wg.Wait()
		// ...cost exactly one simulation...
		if st := eng.Stats(); st.Runs != 1 {
			t.Errorf("%s: %d concurrent identical jobs ran %d simulations, want 1",
				b.ID(), n, st.Runs)
		}
		for i := 0; i < n; i++ {
			if res[i].Err != nil {
				t.Fatalf("%s: job %d: %v", b.ID(), i, res[i].Err)
			}
			if got := reportOf(t, res[i]).String(); got != want {
				t.Fatalf("%s: concurrent engine report differs from cold sequential run", b.ID())
			}
		}
		// ...and a later cache hit is still byte-identical.
		hit := eng.Do(context.Background(), job)
		if hit.Err != nil {
			t.Fatal(hit.Err)
		}
		if !hit.Cached {
			t.Errorf("%s: repeat job missed the cache", b.ID())
		}
		if reportOf(t, hit).String() != want {
			t.Errorf("%s: cached report differs from cold sequential run", b.ID())
		}
	}
}
