package gpusim_test

import (
	"context"
	"testing"

	"gpa/internal/arch"
	"gpa/internal/gpusim"
	"gpa/internal/kernels"
)

// corpusRun is one Table 3 variant ready to simulate.
type corpusRun struct {
	prog   *gpusim.Program
	launch gpusim.LaunchConfig
	wl     gpusim.Workload
}

// BenchmarkCorpusMeasure prices steady-state fast-forward on the
// evaluation corpus: every Table 3 variant simulated as a measure runs
// it (V100, 4 SMs, seed 11, one goroutine), with fast-forward (ff) and
// without it, the event skip kept (noff). The variants split into those
// on which fast-forward locks a period and those on which it never
// does, where it can only cost its detector. One op is one pass over a
// group.
func BenchmarkCorpusMeasure(b *testing.B) {
	ctx := context.Background()
	cfg := gpusim.Config{GPU: arch.VoltaV100(), SimSMs: 4, Seed: 11, Parallelism: 1}
	groups := map[bool][]corpusRun{}
	for _, row := range kernels.All() {
		for _, v := range []*kernels.Variant{&row.Base, &row.Opt} {
			k, wl, err := v.Build()
			if err != nil {
				b.Fatal(err)
			}
			prog, err := gpusim.Load(k.Module)
			if err != nil {
				b.Fatal(err)
			}
			l := k.Launch
			r := corpusRun{prog: prog, wl: wl, launch: gpusim.LaunchConfig{
				Entry:             l.Entry,
				Grid:              gpusim.Dim3{X: l.GridX, Y: l.GridY, Z: l.GridZ},
				Block:             gpusim.Dim3{X: l.BlockX, Y: l.BlockY, Z: l.BlockZ},
				RegsPerThread:     l.RegsPerThread,
				SharedMemPerBlock: l.SharedMemPerBlock,
			}}
			res, err := gpusim.Run(ctx, prog, r.launch, wl, cfg)
			if err != nil {
				b.Fatal(err)
			}
			cycles, locks := res.Cycles, res.Work.PeriodsDetected > 0
			prog.Recycle(res)
			// The hook turns fast-forward off and changes no result.
			if res, err = gpusim.Run(ctx, prog, r.launch, wl, gpusim.WithoutFastForward(cfg)); err != nil {
				b.Fatal(err)
			}
			if res.Cycles != cycles || res.Work.PeriodsDetected != 0 || res.Work.CyclesFastForwarded != 0 {
				b.Fatalf("%s: without fast-forward %d cycles, %d periods; with it %d cycles",
					l.Entry, res.Cycles, res.Work.PeriodsDetected, cycles)
			}
			prog.Recycle(res)
			groups[locks] = append(groups[locks], r)
		}
	}
	for _, g := range []struct {
		name  string
		locks bool
	}{{"locking", true}, {"nonlocking", false}} {
		for _, mode := range []struct {
			name string
			cfg  gpusim.Config
		}{{"ff", cfg}, {"noff", gpusim.WithoutFastForward(cfg)}} {
			b.Run(g.name+"/"+mode.name, func(b *testing.B) {
				runs := groups[g.locks]
				b.ReportMetric(float64(len(runs)), "variants")
				for range b.N {
					for _, r := range runs {
						res, err := gpusim.Run(ctx, r.prog, r.launch, r.wl, mode.cfg)
						if err != nil {
							b.Fatal(err)
						}
						r.prog.Recycle(res)
					}
				}
			})
		}
	}
}
