package kernels

import (
	"context"
	"testing"

	"gpa"
)

// TestSteadyFastForwardFiresOnCorpus pins that the steady-state
// memoizer is live on the evaluation corpus, not just on synthetic
// oracle kernels: measuring the nw baseline (a barrier-synchronized
// wavefront loop, periodic at the SM level) must detect a period and
// skip cycles — and so must profiling it the way gpad serves every
// request (PC sampling at period 64, 4 SMs), since a sampled run is the
// only simulation an advise pays for. The unsampled run goes through an
// engine, whose Stats sum the work records of the runs it makes; the
// sampled one carries its own record on the profile.
func TestSteadyFastForwardFiresOnCorpus(t *testing.T) {
	rows := Find("rodinia/nw")
	if len(rows) == 0 {
		t.Fatal("no rodinia/nw row")
	}
	k, wl, err := rows[0].Base.Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	eng := gpa.NewEngine(&gpa.EngineOptions{Workers: 1})
	res := eng.Do(ctx, gpa.Job{Kind: gpa.JobMeasure, Kernel: k, WorkloadKey: "nw/base",
		Options: &gpa.Options{Workload: wl, Seed: 11, SimSMs: 4, Parallelism: 1}})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	st := eng.Stats()
	if st.Sims != 1 || st.FFPeriodsDetected <= 0 || st.FFCyclesSkipped <= 0 {
		t.Errorf("fast-forward did not fire on rodinia/nw: sims=%d periods=%d cyclesSkipped=%d",
			st.Sims, st.FFPeriodsDetected, st.FFCyclesSkipped)
	}
	if st.FFCyclesSkipped >= res.Cycles*4 {
		t.Errorf("skipped %d cycles but 4 SMs only simulate %d total", st.FFCyclesSkipped, res.Cycles*4)
	}

	prof, err := k.Profile(ctx, &gpa.Options{
		Workload: wl, Seed: 11, SimSMs: 4, SamplePeriod: 64, Parallelism: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if w := prof.Work; w.PeriodsDetected <= 0 || w.CyclesFastForwarded <= 0 {
		t.Errorf("fast-forward did not fire on a sampled rodinia/nw run: periods=%d cyclesSkipped=%d",
			w.PeriodsDetected, w.CyclesFastForwarded)
	}
	if prof.Cycles != res.Cycles {
		t.Errorf("sampled run took %d cycles, unsampled %d", prof.Cycles, res.Cycles)
	}
}
