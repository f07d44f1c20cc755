// Command drift-check prints a digest of simulator-visible behavior for
// comparing builds: per-row measured cycles and a hash of the full
// profile (sample counters included) for a few representative rows.
// Ctrl-C / SIGTERM cancels the in-flight simulation and exits non-zero.
//
// With -store-dir the rows are resolved through a store-backed engine
// instead of the direct library calls, so CI can run the tool twice
// against one directory — cold, then warm from disk — and diff both
// outputs against DRIFT.txt to prove store-served artifacts are
// byte-identical to recomputation.
//
// With -work it prints the other golden, WORK.txt: per row, the
// simulator's deterministic work record for the run gpad serves (a
// PC-sampled profile at the default period) — periods locked, SM-cycles
// fast-forwarded, fallbacks, run-loop iterations and readiness
// evaluations. The counts repeat exactly, so a change to how much work
// a simulation takes is a diff of that file, not a timing argument.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"gpa"
	"gpa/internal/gpusim"
	"gpa/internal/kernels"
)

func main() {
	storeDir := flag.String("store-dir", "",
		"resolve rows through a persistent artifact store at this directory "+
			"(empty = direct library calls)")
	work := flag.Bool("work", false,
		"print the per-row simulator work record (WORK.txt) instead of the behavior digest")
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	if *work {
		err = runWork(ctx)
	} else {
		err = run(ctx, *storeDir)
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

func run(ctx context.Context, storeDir string) error {
	var eng *gpa.Engine
	if storeDir != "" {
		st, err := gpa.OpenStore(storeDir)
		if err != nil {
			return err
		}
		defer st.Close()
		eng = gpa.NewEngine(&gpa.EngineOptions{Store: st})
	}
	for _, b := range kernels.All() {
		k, wl, err := b.Base.Build()
		if err != nil {
			return err
		}
		opts := &gpa.Options{Workload: wl, Seed: 11, SimSMs: 4}
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
		}
		fmt.Printf("%-60s cycles=%-10d profile=%s\n", b.ID(), cycles, digest[:16])
	}
	return nil
}

// discard is the sample sink of a work run: the samples themselves are
// DRIFT.txt's business.
type discard struct{}

func (discard) Record(gpusim.Sample) {}

// runWork simulates each row as a profile request does — sampling on at
// the default period of 64, the first 4 SMs, seed 11 as in run — and
// prints the run's work counters.
func runWork(ctx context.Context) error {
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
			GPU: gpa.V100(), SimSMs: 4, Seed: 11, Parallelism: 1,
			SamplePeriod: 64, Sink: discard{},
		})
		if err != nil {
			return err
		}
		fmt.Printf("%-60s periodsDetected=%-3d cyclesFastForwarded=%-8d fastForwardFallbacks=%-4d loopIterations=%-8d readyCalls=%d\n",
			b.ID(), res.PeriodsDetected, res.CyclesFastForwarded, res.FastForwardFallbacks,
			res.LoopIterations, res.ReadyCalls)
	}
	return nil
}
