// Benchmark harness regenerating the paper's evaluation artifacts (run
// with `go test -bench=. -benchmem`):
//
//   - BenchmarkTable3/<row> measures the full reproduction pipeline for
//     each Table 3 row (baseline measure + optimized measure + profile +
//     advise) and reports achieved/estimated speedups as custom metrics.
//   - BenchmarkFigure7/<app> measures the blame-graph construction and
//     reports the before/after pruning coverage of Figure 7.
//   - BenchmarkPruningAblation toggles the blamer's three pruning rules
//     individually (the design-choice ablations of README.md,
//     "Benchmarks and the performance trajectory").
//   - BenchmarkApportionAblation toggles Equation 1's two weighting
//     heuristics.
//   - BenchmarkPipeline* measure the stages in isolation (simulator,
//     profiler, blamer, advisor).
package gpa_test

import (
	"context"
	"runtime"
	"testing"

	"gpa"
	"gpa/internal/arch"
	"gpa/internal/blamer"
	"gpa/internal/kernels"

	adv "gpa/internal/advisor"
)

func BenchmarkTable3(b *testing.B) {
	for _, row := range kernels.All() {
		row := row
		b.Run(row.App+"/"+row.Optimization, func(b *testing.B) {
			var out *kernels.Outcome
			var err error
			for i := 0; i < b.N; i++ {
				out, err = row.Run(context.Background(), kernels.RunOptions{Seed: 11})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(out.Achieved, "achieved-x")
			b.ReportMetric(out.Estimated, "estimated-x")
			b.ReportMetric(out.Error*100, "error-%")
		})
	}
}

func BenchmarkFigure7(b *testing.B) {
	for _, row := range kernels.Rodinia() {
		row := row
		b.Run(row.App, func(b *testing.B) {
			var before, after float64
			var err error
			for i := 0; i < b.N; i++ {
				before, after, err = kernels.Coverage(context.Background(), row, kernels.RunOptions{Seed: 11})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(before, "coverage-before")
			b.ReportMetric(after, "coverage-after")
		})
	}
}

// pipelineFixture profiles one representative kernel once for the
// stage benchmarks.
func pipelineFixture(b *testing.B) (*gpa.Kernel, *gpa.Options) {
	b.Helper()
	row := kernels.Find("rodinia/hotspot")[0]
	k, wl, err := row.Base.Build()
	if err != nil {
		b.Fatal(err)
	}
	return k, &gpa.Options{Workload: wl, Seed: 11, SimSMs: 1}
}

// BenchmarkPipelineSimulate measures the raw simulator: the historical
// single-SM configuration plus the 4-SM configuration sequentially and
// with concurrent SM execution (results are identical; only wall-clock
// differs). SM4-seq vs SM4-par quantifies the worker-pool speedup.
func BenchmarkPipelineSimulate(b *testing.B) {
	cases := []struct {
		name                string
		simSMs, parallelism int
	}{
		{"SM1", 1, 1},
		{"SM4-seq", 4, 1},
		{"SM4-par", 4, runtime.GOMAXPROCS(0)},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			k, opts := pipelineFixture(b)
			opts.SimSMs = tc.simSMs
			opts.Parallelism = tc.parallelism
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := k.Measure(context.Background(), opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPipelineProfile(b *testing.B) {
	k, opts := pipelineFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.Profile(context.Background(), opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineAdvise(b *testing.B) {
	k, opts := pipelineFixture(b)
	prof, err := k.Profile(context.Background(), opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.AdviseFromProfile(context.Background(), prof, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPruningAblation(b *testing.B) {
	k, opts := pipelineFixture(b)
	prof, err := k.Profile(context.Background(), opts)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		o    blamer.Options
	}{
		{"all-rules", blamer.Options{}},
		{"no-opcode", blamer.Options{DisableOpcodePrune: true}},
		{"no-dominator", blamer.Options{DisableDominatorPrune: true}},
		{"no-latency", blamer.Options{DisableLatencyPrune: true}},
		{"no-pruning", blamer.Options{
			DisableOpcodePrune: true, DisableDominatorPrune: true, DisableLatencyPrune: true,
		}},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			var coverage float64
			for i := 0; i < b.N; i++ {
				ctx, err := adv.BuildContext(k.Module, prof, arch.VoltaV100(), tc.o)
				if err != nil {
					b.Fatal(err)
				}
				var weight, sum float64
				for _, fc := range ctx.Funcs {
					w := float64(len(fc.Blame.UseNodes)) + 1
					weight += w
					sum += fc.Blame.SingleDependencyCoverage(true) * w
				}
				coverage = sum / weight
			}
			b.ReportMetric(coverage, "coverage")
		})
	}
}

func BenchmarkApportionAblation(b *testing.B) {
	k, opts := pipelineFixture(b)
	prof, err := k.Profile(context.Background(), opts)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		o    blamer.Options
	}{
		{"issue-and-path", blamer.Options{}},
		{"issue-only", blamer.Options{DisablePathWeight: true}},
		{"path-only", blamer.Options{DisableIssueWeight: true}},
		{"uniform", blamer.Options{DisableIssueWeight: true, DisablePathWeight: true}},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := adv.BuildContext(k.Module, prof, arch.VoltaV100(), tc.o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEstimatorAccuracy aggregates Table 3's bottom line: geomean
// achieved/estimated speedups and mean estimate error across all rows.
func BenchmarkEstimatorAccuracy(b *testing.B) {
	var geoA, geoE, meanErr float64
	for i := 0; i < b.N; i++ {
		var achieved, estimated []float64
		var errSum float64
		for _, row := range kernels.All() {
			out, err := row.Run(context.Background(), kernels.RunOptions{Seed: 11})
			if err != nil {
				b.Fatal(err)
			}
			achieved = append(achieved, out.Achieved)
			estimated = append(estimated, out.Estimated)
			errSum += out.Error
		}
		geoA = kernels.GeoMean(achieved)
		geoE = kernels.GeoMean(estimated)
		meanErr = errSum / float64(len(kernels.All()))
	}
	b.ReportMetric(geoA, "geomean-achieved-x")
	b.ReportMetric(geoE, "geomean-estimated-x")
	b.ReportMetric(meanErr*100, "mean-error-%")
}
