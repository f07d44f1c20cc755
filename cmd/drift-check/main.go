// Command drift-check prints a digest of simulator-visible behavior for
// comparing builds: per Table 3 row, the measured cycles and a hash of
// the full profile (sample counters included); then, per row again, a
// hash of the advice — its entries and its report text — with the
// estimated speedup and rank of the optimizer the row expects, so a
// change to blaming or advising is a diff too. Ctrl-C / SIGTERM cancels
// the in-flight simulation and exits non-zero.
//
// With -store-dir the rows are resolved through a store-backed engine
// instead of the direct library calls, so CI can run the tool twice
// against one directory — cold, then warm from disk — and diff both
// outputs against DRIFT.txt to prove store-served artifacts, advice
// included, are byte-identical to recomputation.
//
// With -work it prints the other golden, WORK.txt: per row, the
// simulator's deterministic work record for the run gpad serves (a
// PC-sampled profile at the default period) — periods locked, SM-cycles
// fast-forwarded, fallbacks, run-loop iterations and readiness
// evaluations. The counts repeat exactly, so a change to how much work
// a simulation takes is a diff of that file, not a timing argument.
//
// With -arch NAME both outputs are for another registered GPU model
// (default v100, the paper's). The V100 digest is DRIFT.txt; the other
// models' are pinned one file each (DRIFT.t4.txt, DRIFT.a100.txt)
// because bench/ reads DRIFT.txt's cycles= lines keyed by row ID alone.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"gpa"
	"gpa/internal/arch"
	"gpa/internal/gpusim"
	"gpa/internal/kernels"
)

func main() {
	storeDir := flag.String("store-dir", "",
		"resolve rows through a persistent artifact store at this directory "+
			"(empty = direct library calls)")
	work := flag.Bool("work", false,
		"print the per-row simulator work record (WORK.txt) instead of the behavior digest")
	archName := flag.String("arch", "v100", "GPU architecture model (see `gpa archs`)")
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	gpu, err := gpa.LookupGPU(*archName)
	if err == nil {
		if *work {
			err = runWork(ctx, os.Stdout, gpu)
		} else {
			err = run(ctx, os.Stdout, *storeDir, gpu)
		}
	}
	if err != nil {
		if errors.Is(err, gpa.ErrCanceled) {
			fmt.Fprintln(os.Stderr, "drift-check: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "drift-check:", err)
		os.Exit(1)
	}
}

// run writes the behavior digest (DRIFT.txt for the V100) to w.
func run(ctx context.Context, w io.Writer, storeDir string, gpu *arch.GPU) error {
	var eng *gpa.Engine
	if storeDir != "" {
		st, err := gpa.OpenStore(storeDir)
		if err != nil {
			return err
		}
		defer st.Close()
		eng = gpa.NewEngine(&gpa.EngineOptions{Store: st})
	}
	rows := kernels.All()
	reps := make([]*gpa.Report, len(rows))
	for i, b := range rows {
		k, wl, err := b.Base.Build()
		if err != nil {
			return err
		}
		opts := &gpa.Options{Workload: wl, GPU: gpu, Seed: 11, SimSMs: 4}
		var (
			cycles int64
			digest string
		)
		if eng != nil {
			// The store path must print exactly what the direct path
			// prints; the workload key makes the rows cacheable.
			key := b.ID() + "/base"
			m := eng.Do(ctx, gpa.Job{Kind: gpa.JobMeasure, Kernel: k, Options: opts, WorkloadKey: key})
			if m.Err != nil {
				return m.Err
			}
			p := eng.Do(ctx, gpa.Job{Kind: gpa.JobProfile, Kernel: k, Options: opts, WorkloadKey: key})
			if p.Err != nil {
				return p.Err
			}
			cycles, digest = m.Cycles, p.ProfileDigest
			if reps[i], err = eng.Do(ctx, gpa.Job{Kind: gpa.JobAdvise, Kernel: k, Options: opts, WorkloadKey: key}).Report(); err != nil {
				return err
			}
		} else {
			if cycles, err = k.Measure(ctx, opts); err != nil {
				return err
			}
			prof, err := k.Profile(ctx, opts)
			if err != nil {
				return err
			}
			if digest, err = prof.Digest(); err != nil {
				return err
			}
			if reps[i], err = k.AdviseFromProfile(ctx, prof, opts); err != nil {
				return err
			}
		}
		fmt.Fprintf(w, "%-60s cycles=%-10d profile=%s\n", b.ID(), cycles, digest[:16])
	}
	// The advice block: per row, the first 8 bytes of the SHA-256 of the
	// entries' JSON followed by the report text, and the estimated
	// speedup and 1-based rank of the optimizer the row expects (0 and 0
	// when no entry is that optimizer's). Its lines have no " cycles="
	// column, so readers of the first block (bench/'s pins) skip them.
	for i, b := range rows {
		entries, err := json.Marshal(reps[i].Advice.Entries)
		if err != nil {
			return err
		}
		sum := sha256.Sum256(append(entries, reps[i].String()...))
		est, rank := 0.0, 0
		for j, e := range reps[i].Advice.Entries {
			if e.Optimizer == b.Optimizer {
				est, rank = e.Speedup, j+1
				break
			}
		}
		fmt.Fprintf(w, "%-60s advice=%x est=%.6f rank=%d\n", b.ID(), sum[:8], est, rank)
	}
	return nil
}

// discard is the sample sink of a work run: the samples themselves are
// DRIFT.txt's business.
type discard struct{}

func (discard) Record(gpusim.Sample) {}

// runWork simulates each row as a profile request does — sampling on at
// the default period of 64, the first 4 SMs, seed 11 as in run — and
// writes the run's work counters to w.
func runWork(ctx context.Context, w io.Writer, gpu *arch.GPU) error {
	for _, b := range kernels.All() {
		k, wl, err := b.Base.Build()
		if err != nil {
			return err
		}
		prog, err := gpusim.Load(k.Module)
		if err != nil {
			return err
		}
		l := k.Launch
		res, err := gpusim.Run(ctx, prog, gpusim.LaunchConfig{
			Entry:             l.Entry,
			Grid:              gpusim.Dim3{X: l.GridX, Y: l.GridY, Z: l.GridZ},
			Block:             gpusim.Dim3{X: l.BlockX, Y: l.BlockY, Z: l.BlockZ},
			RegsPerThread:     l.RegsPerThread,
			SharedMemPerBlock: l.SharedMemPerBlock,
		}, wl, gpusim.Config{
			GPU: gpu, SimSMs: 4, Seed: 11, Parallelism: 1,
			SamplePeriod: 64, Sink: discard{},
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-60s periodsDetected=%-3d cyclesFastForwarded=%-8d fastForwardFallbacks=%-4d loopIterations=%-8d readyCalls=%d\n",
			b.ID(), res.PeriodsDetected, res.CyclesFastForwarded, res.FastForwardFallbacks,
			res.LoopIterations, res.ReadyCalls)
	}
	return nil
}
