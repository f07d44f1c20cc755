// Command gpa-bench regenerates the GPA paper's evaluation artifacts on
// a simulated GPU (the paper's V100 by default; -arch selects any
// registered model):
//
//	gpa-bench -table3          Table 3: achieved vs estimated speedups
//	                           for all 26 (app, kernel, optimization)
//	                           rows, with geometric means and errors.
//	gpa-bench -fig7            Figure 7: single-dependency coverage
//	                           before and after pruning, per Rodinia
//	                           benchmark.
//	gpa-bench -case-studies    Section 7: the ExaTENSOR, Quicksilver,
//	                           PeleC, and Minimod walkthroughs with
//	                           their advice reports.
//	gpa-bench -arch-sweep      Table 3 on every registered architecture
//	                           (v100, t4, a100, ...) concurrently, with a
//	                           per-architecture comparison; -smoke limits
//	                           the sweep to the first 3 rows for CI.
//	gpa-bench -all             Everything (on the selected -arch).
//
// Cross-cutting flags: -arch NAME runs the single-architecture modes on
// another GPU model, -parallel runs row sweeps and per-row measurements
// concurrently (output is unchanged — the simulator is deterministic at
// every parallelism level), -json FILE writes Table 3 or arch-sweep
// outcomes as JSON, -cpuprofile FILE captures a pprof profile. Timing
// the pipeline is bench/'s job (bash bench/run.sh).
//
// Absolute numbers come from the simulator, not the authors' hardware;
// the reproduced claims are the shapes (see EXPERIMENTS.md).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"gpa"
	"gpa/internal/arch"
	"gpa/internal/kernels"
	"gpa/internal/par"
)

// sweepConfig carries the cross-cutting run options.
type sweepConfig struct {
	seed     uint64
	parallel bool
	// gpu is the architecture the single-arch modes run on (nil = the
	// paper's V100).
	gpu *arch.GPU
	// engine is the shared scheduler every -parallel sweep funnels its
	// simulations through: one machine-wide worker pool plus a
	// content-addressed cache, so running -table3 and -arch-sweep in
	// the same invocation re-serves the overlapping (kernel, arch,
	// seed) cells from cache instead of re-simulating them. nil runs
	// rows sequentially in-process.
	engine *gpa.Engine
}

func (c sweepConfig) runOptions() kernels.RunOptions {
	return kernels.RunOptions{GPU: c.gpu, Seed: c.seed, Parallel: c.parallel, Engine: c.engine}
}

// sweepWorkers is how many rows a sweep submits concurrently: with a
// shared engine the rows are just job producers (the engine's pool
// bounds actual simulations), so every row is submitted at once;
// without one, row-level concurrency is the only level there is, and
// GOMAXPROCS bounds it.
func (c sweepConfig) sweepWorkers(rows int) int {
	if !c.parallel {
		return 1
	}
	if c.engine != nil {
		return rows
	}
	return runtime.GOMAXPROCS(0)
}

func main() {
	table3 := flag.Bool("table3", false, "regenerate Table 3")
	fig7 := flag.Bool("fig7", false, "regenerate Figure 7")
	cases := flag.Bool("case-studies", false, "run the Section 7 case studies")
	archSweep := flag.Bool("arch-sweep", false,
		"run Table 3 on every registered architecture and print a per-arch comparison")
	smoke := flag.Bool("smoke", false, "limit -arch-sweep to the first 3 rows (CI smoke mode)")
	all := flag.Bool("all", false, "run everything")
	archName := flag.String("arch", "",
		"GPU architecture model for the single-arch modes (see `gpa archs`; default v100)")
	seed := flag.Uint64("seed", 11, "simulation seed")
	parallel := flag.Bool("parallel", false,
		"run benchmark rows and per-row measurements concurrently (same output)")
	jsonOut := flag.String("json", "", "write Table 3 or arch-sweep outcomes as JSON to `file`")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to `file`")
	storeDir := flag.String("store-dir", "",
		"persistent artifact store `directory` backing the shared engine (empty = in-memory only)")
	flag.Parse()
	// Ctrl-C / SIGTERM cancels every in-flight simulation; sweeps print
	// whichever rows completed before the interrupt and exit non-zero.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *all {
		*table3, *fig7, *cases = true, true, true
	}
	if *jsonOut != "" && !*table3 && !*archSweep {
		fail(fmt.Errorf("-json records a Table 3 or arch sweep; combine it with -table3, -arch-sweep, or -all"))
	}
	if *table3 && *archSweep && *jsonOut != "" {
		fail(fmt.Errorf("-json with both -table3 and -arch-sweep is ambiguous; pick one"))
	}
	if !*table3 && !*fig7 && !*cases && !*archSweep {
		flag.Usage()
		os.Exit(2)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	cfg := sweepConfig{seed: *seed, parallel: *parallel}
	var store *gpa.Store
	if *storeDir != "" {
		var err error
		if store, err = gpa.OpenStore(*storeDir); err != nil {
			fail(err)
		}
	}
	if *parallel || *archSweep || store != nil {
		cfg.engine = gpa.NewEngine(&gpa.EngineOptions{Store: store})
	}
	if *archName != "" {
		g, err := arch.Lookup(*archName)
		if err != nil {
			fail(err)
		}
		cfg.gpu = g
	}
	if *table3 {
		if err := runTable3(ctx, cfg, *jsonOut); err != nil {
			fail(err)
		}
	}
	if *fig7 {
		if err := runFigure7(ctx, cfg); err != nil {
			fail(err)
		}
	}
	if *cases {
		if err := runCaseStudies(ctx, cfg); err != nil {
			fail(err)
		}
	}
	if *archSweep {
		smokeRows := 0
		if *smoke {
			smokeRows = 3
		}
		sweepJSON := *jsonOut
		if *table3 {
			// -json already consumed by the Table 3 sweep above.
			sweepJSON = ""
		}
		if err := runArchSweep(ctx, cfg, sweepJSON, smokeRows); err != nil {
			fail(err)
		}
	}
}

func fail(err error) {
	// os.Exit skips deferred cleanup; flush any active CPU profile so
	// -cpuprofile output stays usable on error paths.
	pprof.StopCPUProfile()
	if errors.Is(err, gpa.ErrCanceled) {
		fmt.Fprintln(os.Stderr, "gpa-bench: interrupted")
		os.Exit(130)
	}
	fmt.Fprintln(os.Stderr, "gpa-bench:", err)
	os.Exit(1)
}

// sweep runs every benchmark in rows, concurrently when cfg.parallel is
// set (through the shared engine's worker pool when one is configured),
// preserving row order in the returned slice. On cancellation the
// completed rows keep their outcomes (nil marks unfinished ones) and
// the first error is returned alongside them.
func sweep(ctx context.Context, rows []*kernels.Benchmark, cfg sweepConfig) ([]*kernels.Outcome, error) {
	outs := make([]*kernels.Outcome, len(rows))
	errs := make([]error, len(rows))
	par.Do(len(rows), cfg.sweepWorkers(len(rows)), func(i int) {
		outs[i], errs[i] = rows[i].Run(ctx, cfg.runOptions())
	})
	for _, err := range errs {
		if err != nil {
			return outs, err
		}
	}
	return outs, nil
}

func runTable3(ctx context.Context, cfg sweepConfig, jsonOut string) error {
	rows := kernels.All()
	outs, sweepErr := sweep(ctx, rows, cfg)
	if sweepErr != nil && !errors.Is(sweepErr, gpa.ErrCanceled) {
		return sweepErr
	}
	fmt.Println("Table 3. Achieved and estimated speedups per benchmark")
	fmt.Println(strings.Repeat("=", 132))
	fmt.Printf("%-24s %-26s %-30s %9s %9s %9s %9s %6s %5s\n",
		"Application", "Kernel", "Optimization",
		"Achieved", "(paper)", "Estimated", "(paper)", "Error", "Rank")
	var achieved, estimated, estErrors []float64
	done := 0
	for i, b := range rows {
		out := outs[i]
		if out == nil {
			// Canceled before this row finished; completed rows still
			// print below.
			continue
		}
		done++
		fmt.Printf("%-24s %-26s %-30s %8.2fx %8.2fx %8.2fx %8.2fx %5.0f%% %5d\n",
			b.App, b.Kernel, b.Optimization,
			out.Achieved, b.PaperAchieved,
			out.Estimated, b.PaperEstimated,
			out.Error*100, out.Rank)
		achieved = append(achieved, out.Achieved)
		// Rows whose optimizer does not apply on this architecture
		// (Rank 0) carry no estimate; geomean and error cover matched
		// rows. On the default V100 every row matches.
		if out.Rank != 0 {
			estimated = append(estimated, out.Estimated)
			estErrors = append(estErrors, out.Error)
		}
	}
	fmt.Println(strings.Repeat("-", 132))
	var errSum, meanErr float64
	for _, e := range estErrors {
		errSum += e
	}
	if len(estErrors) > 0 {
		meanErr = errSum / float64(len(estErrors))
	}
	fmt.Printf("%-82s %8.2fx %8.2fx %8.2fx %8.2fx %5.1f%%\n",
		"geomean",
		kernels.GeoMean(achieved), 1.22,
		kernels.GeoMean(estimated), 1.26,
		meanErr*100)
	if sweepErr != nil {
		fmt.Printf("(interrupted: %d of %d rows completed)\n\n", done, len(rows))
		return sweepErr
	}
	fmt.Println()
	if jsonOut != "" {
		if err := writeTable3JSON(jsonOut, cfg.seed, rows, outs); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonOut)
	}
	return nil
}

func runFigure7(ctx context.Context, cfg sweepConfig) error {
	fmt.Println("Figure 7. Single dependency coverage before and after pruning cold edges")
	fmt.Println(strings.Repeat("=", 72))
	fmt.Printf("%-26s %10s %10s   %s\n", "Benchmark", "Before", "After", "")
	for _, b := range kernels.Rodinia() {
		before, after, err := kernels.Coverage(ctx, b, cfg.runOptions())
		if err != nil {
			return err
		}
		bar := strings.Repeat("#", int(after*20+0.5))
		fmt.Printf("%-26s %10.3f %10.3f   %s\n", b.App, before, after, bar)
	}
	fmt.Println()
	return nil
}

func runCaseStudies(ctx context.Context, cfg sweepConfig) error {
	for _, app := range []string{"ExaTENSOR", "Quicksilver", "PeleC", "Minimod"} {
		fmt.Printf("Case study: %s\n%s\n", app, strings.Repeat("=", 60))
		rows := kernels.Find(app)
		outs, err := sweep(ctx, rows, cfg)
		if err != nil {
			return err
		}
		for i, b := range rows {
			out := outs[i]
			fmt.Printf("\n--- %s / %s: applying %q ---\n", b.App, b.Kernel, b.Optimization)
			fmt.Printf("achieved %.2fx (paper %.2fx), estimated %.2fx (paper %.2fx)\n",
				out.Achieved, b.PaperAchieved, out.Estimated, b.PaperEstimated)
			fmt.Println("\nTop advice for the baseline kernel:")
			for i, e := range out.Report.Top(3) {
				fmt.Printf("  %d. %-42s ratio %5.1f%%  est %.3fx\n",
					i+1, e.Optimizer, e.Ratio*100, e.Speedup)
			}
		}
		fmt.Println()
	}
	return nil
}
