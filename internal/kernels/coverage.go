package kernels

import (
	"context"

	"gpa/internal/arch"
	"gpa/internal/blamer"

	adv "gpa/internal/advisor"
)

// Coverage computes the Figure 7 metric for a benchmark's baseline
// kernel: single-dependency coverage of the instruction dependency graph
// before and after pruning cold edges, weighted by each function's
// stalled-instruction count. A canceled ctx aborts the profiling run.
func Coverage(ctx context.Context, b *Benchmark, ro RunOptions) (before, after float64, err error) {
	k, wl, err := b.Base.Build()
	if err != nil {
		return 0, 0, err
	}
	prof, err := k.Profile(ctx, ro.options(wl))
	if err != nil {
		return 0, 0, err
	}
	gpu := ro.GPU
	if gpu == nil {
		gpu = arch.VoltaV100()
	}
	actx, err := adv.BuildContext(k.Module, prof, gpu, blamer.Options{})
	if err != nil {
		return 0, 0, err
	}
	var weight, sumB, sumA float64
	for _, fc := range actx.Funcs {
		w := float64(len(fc.Blame.UseNodes)) + 1
		weight += w
		sumB += fc.Blame.SingleDependencyCoverage(false) * w
		sumA += fc.Blame.SingleDependencyCoverage(true) * w
	}
	if weight == 0 {
		return 1, 1, nil
	}
	return sumB / weight, sumA / weight, nil
}
