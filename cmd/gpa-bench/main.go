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
//	gpa-bench -all             Everything.
//
// Cross-cutting flags: -arch NAME runs on another GPU model (`gpa archs`
// lists them; a cross-architecture comparison is a shell loop over
// -arch), -seed N sets the simulation seed, -json FILE writes the
// Table 3 outcomes as JSON. Rows run one after another through the library's direct API;
// the whole evaluation takes well under a second. Timing the pipeline
// is bench/'s job (bash bench/run.sh).
//
// Absolute numbers come from the simulator, not the authors' hardware;
// the reproduced claims are the shapes (see README.md, "Notes").
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"gpa"
	"gpa/internal/arch"
	"gpa/internal/kernels"
)

func main() {
	table3 := flag.Bool("table3", false, "regenerate Table 3")
	fig7 := flag.Bool("fig7", false, "regenerate Figure 7")
	cases := flag.Bool("case-studies", false, "run the Section 7 case studies")
	all := flag.Bool("all", false, "run everything")
	archName := flag.String("arch", "v100", "GPU architecture model (see `gpa archs`)")
	seed := flag.Uint64("seed", 11, "simulation seed")
	jsonOut := flag.String("json", "", "write the Table 3 outcomes as JSON to `file`")
	flag.Parse()
	// Ctrl-C / SIGTERM cancels the simulation in flight; Table 3 prints
	// whichever rows completed before the interrupt and exits non-zero.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *all {
		*table3, *fig7, *cases = true, true, true
	}
	if *jsonOut != "" && !*table3 {
		fail(fmt.Errorf("-json records a Table 3 sweep; combine it with -table3 or -all"))
	}
	if !*table3 && !*fig7 && !*cases {
		flag.Usage()
		os.Exit(2)
	}
	gpu, err := arch.Lookup(*archName)
	if err != nil {
		fail(err)
	}
	ro := kernels.RunOptions{GPU: gpu, Seed: *seed}
	if *table3 {
		if err := runTable3(ctx, ro, *jsonOut); err != nil {
			fail(err)
		}
	}
	if *fig7 {
		if err := runFigure7(ctx, ro); err != nil {
			fail(err)
		}
	}
	if *cases {
		if err := runCaseStudies(ctx, ro); err != nil {
			fail(err)
		}
	}
}

func fail(err error) {
	if errors.Is(err, gpa.ErrCanceled) {
		fmt.Fprintln(os.Stderr, "gpa-bench: interrupted")
		os.Exit(130)
	}
	fmt.Fprintln(os.Stderr, "gpa-bench:", err)
	os.Exit(1)
}

// sweep runs every benchmark in rows, in order, stopping at the first
// error: the rows before it keep their outcomes (nil marks the rest)
// and the error is returned alongside them.
func sweep(ctx context.Context, rows []*kernels.Benchmark, ro kernels.RunOptions) ([]*kernels.Outcome, error) {
	outs := make([]*kernels.Outcome, len(rows))
	for i, b := range rows {
		out, err := b.Run(ctx, ro)
		if err != nil {
			return outs, err
		}
		outs[i] = out
	}
	return outs, nil
}

func runTable3(ctx context.Context, ro kernels.RunOptions, jsonOut string) error {
	rows := kernels.All()
	outs, sweepErr := sweep(ctx, rows, ro)
	if sweepErr != nil && !errors.Is(sweepErr, gpa.ErrCanceled) {
		return sweepErr
	}
	sum := summarize(outs)
	printTable3(os.Stdout, rows, outs, sum)
	if sweepErr != nil {
		fmt.Printf("(interrupted: %d of %d rows completed)\n\n", sum.rows, len(rows))
		return sweepErr
	}
	fmt.Println()
	if jsonOut != "" {
		if err := writeTable3JSON(jsonOut, ro, rows, outs, sum); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonOut)
	}
	return nil
}

// table3Summary is the Table 3 footer: the one place the geomeans and
// the mean estimate error are computed, read by both the printed table
// and the -json document.
type table3Summary struct {
	// rows counts completed rows (an interrupted sweep leaves nil
	// outcomes behind).
	rows int
	// achieved is the geomean over completed rows; estimated and
	// meanErr cover matched rows only. A row whose optimizer does not
	// apply on this architecture (Rank 0) carries no estimate. On the
	// default V100 every row matches.
	achieved, estimated, meanErr float64
}

func summarize(outs []*kernels.Outcome) table3Summary {
	var achieved, estimated []float64
	var errSum float64
	for _, out := range outs {
		if out == nil {
			continue
		}
		achieved = append(achieved, out.Achieved)
		if out.Rank != 0 {
			estimated = append(estimated, out.Estimated)
			errSum += out.Error
		}
	}
	sum := table3Summary{
		rows:      len(achieved),
		achieved:  kernels.GeoMean(achieved),
		estimated: kernels.GeoMean(estimated),
	}
	if len(estimated) > 0 {
		sum.meanErr = errSum / float64(len(estimated))
	}
	return sum
}

func printTable3(w io.Writer, rows []*kernels.Benchmark, outs []*kernels.Outcome, sum table3Summary) {
	fmt.Fprintln(w, "Table 3. Achieved and estimated speedups per benchmark")
	fmt.Fprintln(w, strings.Repeat("=", 132))
	fmt.Fprintf(w, "%-24s %-26s %-30s %9s %9s %9s %9s %6s %5s\n",
		"Application", "Kernel", "Optimization",
		"Achieved", "(paper)", "Estimated", "(paper)", "Error", "Rank")
	for i, b := range rows {
		out := outs[i]
		if out == nil {
			// Canceled before this row finished.
			continue
		}
		fmt.Fprintf(w, "%-24s %-26s %-30s %8.2fx %8.2fx %8.2fx %8.2fx %5.0f%% %5d\n",
			b.App, b.Kernel, b.Optimization,
			out.Achieved, b.PaperAchieved,
			out.Estimated, b.PaperEstimated,
			out.Error*100, out.Rank)
	}
	fmt.Fprintln(w, strings.Repeat("-", 132))
	fmt.Fprintf(w, "%-82s %8.2fx %8.2fx %8.2fx %8.2fx %5.1f%%\n",
		"geomean", sum.achieved, 1.22, sum.estimated, 1.26, sum.meanErr*100)
}

func runFigure7(ctx context.Context, ro kernels.RunOptions) error {
	fmt.Println("Figure 7. Single dependency coverage before and after pruning cold edges")
	fmt.Println(strings.Repeat("=", 72))
	fmt.Printf("%-26s %10s %10s   %s\n", "Benchmark", "Before", "After", "")
	for _, b := range kernels.Rodinia() {
		before, after, err := kernels.Coverage(ctx, b, ro)
		if err != nil {
			return err
		}
		bar := strings.Repeat("#", int(after*20+0.5))
		fmt.Printf("%-26s %10.3f %10.3f   %s\n", b.App, before, after, bar)
	}
	fmt.Println()
	return nil
}

func runCaseStudies(ctx context.Context, ro kernels.RunOptions) error {
	for _, app := range []string{"ExaTENSOR", "Quicksilver", "PeleC", "Minimod"} {
		fmt.Printf("Case study: %s\n%s\n", app, strings.Repeat("=", 60))
		rows := kernels.Find(app)
		outs, err := sweep(ctx, rows, ro)
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
