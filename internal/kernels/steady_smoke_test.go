package kernels

import (
	"context"
	"testing"

	"gpa"
	"gpa/internal/gpusim"
)

// TestSteadyFastForwardFiresOnCorpus pins that the steady-state
// memoizer is live on the evaluation corpus, not just on synthetic
// oracle kernels: measuring the nw baseline (a barrier-synchronized
// wavefront loop, periodic at the SM level) must detect a period and
// skip cycles — and so must profiling it the way gpad serves every
// request (PC sampling at period 64, 4 SMs), since a sampled run is the
// only simulation an advise pays for. The FF counters are process-wide
// (gpusim.FFStats), so the test asserts on deltas around each run.
func TestSteadyFastForwardFiresOnCorpus(t *testing.T) {
	rows := Find("rodinia/nw")
	if len(rows) == 0 {
		t.Fatal("no rodinia/nw row")
	}
	k, wl, err := rows[0].Base.Build()
	if err != nil {
		t.Fatal(err)
	}
	p0, c0, _ := gpusim.FFStats()
	cycles, err := k.Measure(context.Background(), &gpa.Options{
		Workload: wl, Seed: 11, SimSMs: 4, Parallelism: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	p1, c1, _ := gpusim.FFStats()
	if p1-p0 <= 0 || c1-c0 <= 0 {
		t.Errorf("fast-forward did not fire on rodinia/nw: periods=%d cyclesSkipped=%d",
			p1-p0, c1-c0)
	}
	if skipped := c1 - c0; skipped >= cycles*4 {
		t.Errorf("skipped %d cycles but 4 SMs only simulate %d total", skipped, cycles*4)
	}

	prof, err := k.Profile(context.Background(), &gpa.Options{
		Workload: wl, Seed: 11, SimSMs: 4, SamplePeriod: 64, Parallelism: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	p2, c2, _ := gpusim.FFStats()
	if p2-p1 <= 0 || c2-c1 <= 0 {
		t.Errorf("fast-forward did not fire on a sampled rodinia/nw run: periods=%d cyclesSkipped=%d",
			p2-p1, c2-c1)
	}
	if prof.Cycles != cycles {
		t.Errorf("sampled run took %d cycles, unsampled %d", prof.Cycles, cycles)
	}
}
