package kernels

import (
	"context"
	"testing"

	"gpa/internal/arch"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 26 {
		t.Fatalf("registry has %d rows, want 26 (Table 3)", len(all))
	}
	seen := map[string]bool{}
	for _, b := range all {
		if seen[b.ID()] {
			t.Errorf("duplicate row %q", b.ID())
		}
		seen[b.ID()] = true
		if b.PaperAchieved <= 1 || b.PaperEstimated <= 1 {
			t.Errorf("%s: paper numbers missing", b.ID())
		}
		if b.Optimizer == "" {
			t.Errorf("%s: no expected optimizer", b.ID())
		}
	}
	rod := Rodinia()
	if len(rod) != 17 {
		t.Errorf("Rodinia() returned %d apps, want 17", len(rod))
	}
}

func TestAllVariantsBuild(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.ID(), func(t *testing.T) {
			if _, _, err := b.Base.Build(); err != nil {
				t.Fatalf("base: %v", err)
			}
			if _, _, err := b.Opt.Build(); err != nil {
				t.Fatalf("opt: %v", err)
			}
		})
	}
}

// TestTable3Shape is the core reproduction check: every row must (a)
// achieve a real speedup from the suggested optimization, and (b) have
// the expected optimizer present in the advice report with a meaningful
// estimate.
func TestTable3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full table in short mode")
	}
	var achieved, estimated []float64
	for _, b := range All() {
		b := b
		t.Run(b.ID(), func(t *testing.T) {
			out, err := b.Run(context.Background(), RunOptions{Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%-60s achieved %.3fx (paper %.2fx) estimated %.3fx (paper %.2fx) rank %d",
				b.ID(), out.Achieved, b.PaperAchieved, out.Estimated, b.PaperEstimated, out.Rank)
			if out.Achieved <= 1.0 {
				t.Errorf("optimized variant is not faster: %.3fx", out.Achieved)
			}
			if out.Rank == 0 {
				t.Errorf("expected optimizer %s absent from the report", b.Optimizer)
			} else if out.Rank > 6 {
				t.Errorf("expected optimizer %s ranked %d (want top 6)", b.Optimizer, out.Rank)
			}
			if out.Estimated <= 1.0 && out.Rank > 0 {
				t.Errorf("estimator predicts no speedup (%.3fx)", out.Estimated)
			}
			achieved = append(achieved, out.Achieved)
			estimated = append(estimated, out.Estimated)
		})
	}
	if len(achieved) == len(All()) {
		t.Logf("geomean achieved %.3fx (paper 1.22x), estimated %.3fx (paper 1.26x)",
			GeoMean(achieved), GeoMean(estimated))
	}
}

// TestTable3EveryArch runs all 26 rows on every registered model. The
// V100 shapes above are the paper's claims; here the contract is only
// that each row runs and reports coherently wherever its launch shape
// fits: a real speedup ratio, a rendered report, and an estimate exactly
// when the row's optimizer made the report.
func TestTable3EveryArch(t *testing.T) {
	if testing.Short() {
		t.Skip("full table per arch in short mode")
	}
	for _, g := range arch.All() {
		t.Run(arch.KeyOf(g), func(t *testing.T) {
			for _, b := range All() {
				out, err := b.Run(context.Background(), RunOptions{GPU: g, Seed: 11})
				if err != nil {
					t.Errorf("%v", err)
					continue
				}
				if out.Achieved <= 0 {
					t.Errorf("%s: achieved %.3fx", b.ID(), out.Achieved)
				}
				if out.Report == nil || out.Report.String() == "" {
					t.Errorf("%s: empty report", b.ID())
				}
				if (out.Rank == 0) != (out.Estimated == 0) {
					t.Errorf("%s: rank %d with estimate %.3fx", b.ID(), out.Rank, out.Estimated)
				}
			}
		})
	}
}

// TestSamplingOnlyObserves states that PC sampling observes a run and
// never steers it, so one simulation can serve both a measurement and a
// profile: on every registered arch, every row's Base and Opt kernel
// profiled at the default period 64 and at 37 (a prime, so samples drift
// across loop bodies instead of locking to one phase) runs exactly the
// cycles Measure runs unsampled.
func TestSamplingOnlyObserves(t *testing.T) {
	if testing.Short() {
		t.Skip("full table per arch in short mode")
	}
	ctx := context.Background()
	for _, g := range arch.All() {
		t.Run(arch.KeyOf(g), func(t *testing.T) {
			for _, b := range All() {
				for i, v := range []*Variant{&b.Base, &b.Opt} {
					name := [...]string{"base", "opt"}[i]
					k, wl, err := v.Build()
					if err != nil {
						t.Fatalf("%s %s: %v", b.ID(), name, err)
					}
					opts := RunOptions{GPU: g, Seed: 11}.options(wl)
					want, err := k.Measure(ctx, opts)
					if err != nil {
						t.Fatalf("%s %s: measure: %v", b.ID(), name, err)
					}
					for _, period := range []int{64, 37} {
						sampled := *opts
						sampled.SamplePeriod = period
						prof, err := k.Profile(ctx, &sampled)
						if err != nil {
							t.Fatalf("%s %s: profile at period %d: %v", b.ID(), name, period, err)
						}
						if prof.Cycles != want {
							t.Errorf("%s %s: %d cycles sampled every %d, %d unsampled", b.ID(), name, prof.Cycles, period, want)
						}
					}
				}
			}
		})
	}
}

// TestFigure7Shape: after pruning, single-dependency coverage exceeds
// 0.8 for most Rodinia benchmarks, with bfs and nw as the low outliers,
// and pruning never lowers coverage.
func TestFigure7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("coverage sweep in short mode")
	}
	for _, b := range Rodinia() {
		b := b
		t.Run(b.App, func(t *testing.T) {
			before, after, err := Coverage(context.Background(), b, RunOptions{Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%-24s coverage before %.3f after %.3f", b.App, before, after)
			if after < before-1e-9 {
				t.Errorf("pruning lowered coverage: %.3f -> %.3f", before, after)
			}
			switch b.App {
			case "rodinia/bfs", "rodinia/nw":
				// The paper's outliers stay below the others.
			default:
				if after < 0.75 {
					t.Errorf("coverage after pruning %.3f, want >= 0.75", after)
				}
			}
		})
	}
}

func TestGeoMean(t *testing.T) {
	got := GeoMean([]float64{1, 4})
	if got < 1.999 || got > 2.001 {
		t.Errorf("GeoMean(1,4) = %v, want 2", got)
	}
	if GeoMean(nil) != 0 {
		t.Errorf("GeoMean(nil) = %v", GeoMean(nil))
	}
}
