package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"time"

	"gpa"
	adv "gpa/internal/advisor"
	"gpa/internal/arch"
	"gpa/internal/blamer"
	"gpa/internal/cfg"
	"gpa/internal/cubin"
	"gpa/internal/gpusim"
	"gpa/internal/kernels"
	"gpa/internal/profiler"
	"gpa/internal/qos"
	"gpa/internal/sampling"
	"gpa/internal/sass"
	"gpa/internal/service"
	"gpa/internal/store"
	"gpa/internal/structure"
)

// loopCalls is how many calls a span around a nanosecond-scale
// operation covers; the metric is the span's self time divided by it.
const loopCalls = 256

// step is one timed call of the layers pass: the span name and the call.
type step struct {
	name string
	f    func() error
}

// layerSpan ties a layers-pass span name to the metric it feeds.
type layerSpan struct {
	span, metric string
	// calls is how many operations one span covers (1 for the
	// microsecond-scale calls); perNs reports nanoseconds per call
	// instead of microseconds.
	calls float64
	perNs bool
}

var layerSpans = []layerSpan{
	{"sass.assemble", "sass.assemble_us", 1, false},
	{"cubin.pack", "cubin.pack_us", 1, false},
	{"cubin.unpack", "cubin.unpack_us", 1, false},
	{"gpa.load_kernel_asm", "gpa.load_kernel_asm_us", 1, false},
	{"gpusim.load", "gpusim.load_us", 1, false},
	{"cfg.build", "cfg.build_us", 1, false},
	{"structure.analyze", "structure.analyze_us", 1, false},
	{"gpusim.run", "gpusim.run_us", 1, false},
	{"profiler.collect", "profiler.collect_us", 1, false},
	{"sampling.aggregate", "sampling.aggregate_us", 1, false},
	{"profiler.digest", "profiler.digest_us", 1, false},
	{"blamer.analyze", "blamer.analyze_us", 1, false},
	{"advisor.build_context", "advisor.build_context_us", 1, false},
	{"advisor.advise", "advisor.advise_us", 1, false},
	{"advisor.render", "advisor.render_us", 1, false},
	{"gpa.result_encode", "gpa.result_encode_us", 1, false},
	{"store.disk_put", "store.disk_put_us", 1, false},
	{"store.disk_get", "store.disk_get_us", 1, false},
	{"store.memory_get", "store.memory_get_ns", loopCalls, true},
	{"qos.acquire", "qos.acquire_ns", loopCalls, true},
	{"service.do_cold", "service.do_cold_us", 1, false},
	{"service.do_warm", "service.do_warm_ns", loopCalls, true},
	{"gpa.engine_do_warm", "gpa.engine_do_warm_ns", loopCalls, true},
	{"kernels.build_memo", "kernels.build_memo_ns", loopCalls, true},
	{"arch.lookup", "arch.lookup_ns", loopCalls, true},
}

// layersPass prices every layer in-process: for each kernel variant
// (all 52 in a traced run) it records one root span with a child span
// around each exported call a request crosses, then reports the median
// self time per kernel of every span name plus exact work counts summed
// over the variants. It runs after the daemon rounds, alone on the box.
// storeDir is an empty scratch directory for the disk-store spans.
func layersPass(ctx context.Context, variants []*kernels.Variant, tr *tracer, storeDir string) (map[string]float64, error) {
	sb := tr.buf()
	defer sb.flush()
	gpu := gpa.V100()
	disk, err := service.OpenDisk(storeDir)
	if err != nil {
		return nil, err
	}
	mem := store.NewMemory(0)
	sched := qos.NewScheduler(workers, 0, qos.Config{})
	svc := service.New(service.Options{Workers: workers})
	eng := gpa.NewEngine(&gpa.EngineOptions{Workers: workers})
	defer func() {
		// Both engines are idle here; Shutdown only releases their state.
		_ = svc.Shutdown(ctx)
		_ = eng.Shutdown(ctx)
	}()

	counts := map[string]float64{}
	for vi, v := range variants {
		root := sb.reserve()
		rootStart := time.Now()
		// timed records one child span of this kernel's root per step
		// (the root's ID doubles as the kernel's trace ID).
		timed := func(steps ...step) error {
			for _, s := range steps {
				start := time.Now()
				err := s.f()
				sb.add(s.name, root, root, start, time.Now())
				if err != nil {
					return fmt.Errorf("variant %d: %s: %w", vi, s.name, err)
				}
			}
			return nil
		}

		var (
			mod    *sass.Module
			blob   []byte
			k      *gpa.Kernel
			prog   *gpusim.Program
			st     *structure.Structure
			prof   *profiler.Profile
			actx   *adv.Context
			advice *adv.Advice
			cycles int64
			body   []byte
		)
		launch := gpusim.LaunchConfig{
			Entry:             v.Launch.Entry,
			Grid:              gpusim.Dim3{X: v.Launch.GridX, Y: v.Launch.GridY, Z: v.Launch.GridZ},
			Block:             gpusim.Dim3{X: v.Launch.BlockX, Y: v.Launch.BlockY, Z: v.Launch.BlockZ},
			RegsPerThread:     v.Launch.RegsPerThread,
			SharedMemPerBlock: v.Launch.SharedMemPerBlock,
		}
		if err := timed(
			step{"sass.assemble", func() (err error) { mod, err = sass.Assemble(v.Asm); return }},
			step{"cubin.pack", func() (err error) { blob, err = cubin.Pack(mod); return }},
			step{"cubin.unpack", func() (err error) { _, err = cubin.Unpack(blob); return }},
			step{"gpa.load_kernel_asm", func() (err error) { k, err = gpa.LoadKernelAsm(v.Asm, v.Launch); return }},
			step{"gpusim.load", func() (err error) { prog, err = gpusim.Load(mod); return }},
			step{"cfg.build", func() error {
				for _, f := range mod.Functions {
					if _, err := cfg.Build(f); err != nil {
						return err
					}
				}
				return nil
			}},
			step{"structure.analyze", func() (err error) { st, err = structure.Analyze(mod); return }},
		); err != nil {
			return nil, err
		}
		var wl gpusim.Workload
		if v.Spec != nil {
			if wl, err = v.Spec.Bind(prog); err != nil {
				return nil, fmt.Errorf("variant %d: bind workload: %w", vi, err)
			}
		}
		const seed = 11
		if err := timed(step{"gpusim.run", func() error {
			res, err := gpusim.Run(ctx, prog, launch, wl, gpusim.Config{GPU: gpu, SimSMs: 1, Seed: seed, Parallelism: 1})
			if err != nil {
				return err
			}
			cycles = res.Cycles
			prog.Recycle(res)
			return nil
		}}); err != nil {
			return nil, err
		}
		popts := profiler.Options{GPU: gpu, SimSMs: 1, Seed: seed, Parallelism: 1}
		if err := timed(step{"profiler.collect", func() (err error) {
			prof, err = profiler.CollectProgram(ctx, prog, launch, wl, popts)
			return
		}}); err != nil {
			return nil, err
		}
		if prof.Cycles != cycles {
			return nil, fmt.Errorf("variant %d: sampling changed the simulation: %d cycles sampled, %d unsampled", vi, prof.Cycles, cycles)
		}
		// A third run feeds the raw sample stream to the aggregation
		// span; it is not a span itself (gpusim.run already prices it).
		buf := sampling.NewBuffer(0)
		res, err := gpusim.Run(ctx, prog, launch, wl, gpusim.Config{GPU: gpu, SimSMs: 1, SamplePeriod: 64, Sink: buf, Seed: seed, Parallelism: 1})
		if err != nil {
			return nil, fmt.Errorf("variant %d: sampled run: %w", vi, err)
		}
		prog.Recycle(res)
		samples := buf.Drain()

		var render strings.Builder
		key := store.Key(sha256.Sum256(blob))
		if err := timed(
			step{"sampling.aggregate", func() error { sampling.AggregateSamples(samples, len(prog.Instrs)); return nil }},
			step{"profiler.digest", func() (err error) { _, err = prof.Digest(); return }},
			step{"blamer.analyze", func() error {
				views, err := prof.FuncViews(mod)
				if err != nil {
					return err
				}
				for name, fv := range views {
					if _, err := blamer.Analyze(st.Func(name), fv.Stats, fv.Issued, gpu, blamer.Options{}); err != nil {
						return err
					}
				}
				return nil
			}},
			step{"advisor.build_context", func() (err error) {
				actx, err = adv.BuildContextWithStructure(mod, st, prof, gpu, blamer.Options{})
				return
			}},
			step{"advisor.advise", func() error { advice = adv.Advise(actx, adv.DefaultOptimizers()...); return nil }},
			step{"advisor.render", func() error { advice.Render(&render); return nil }},
			step{"gpa.result_encode", func() (err error) {
				rep := &gpa.Report{Advice: advice, Profile: prof, Context: actx}
				body, err = rep.Result(k, "", 0).MarshalIndent()
				return
			}},
			step{"store.disk_put", func() error { disk.Put(store.StageAdvice, key, body); return nil }},
			step{"store.disk_get", func() error {
				if _, ok := disk.Get(store.StageAdvice, key); !ok {
					return fmt.Errorf("blob just written is missing")
				}
				return nil
			}},
			step{"store.memory_get", func() error {
				mem.Add(store.StageAdvice, key, body)
				for i := 0; i < loopCalls; i++ {
					mem.Get(store.StageAdvice, key)
				}
				return nil
			}},
			step{"qos.acquire", func() error {
				for i := 0; i < loopCalls; i++ {
					release, err := sched.Acquire(ctx, "", qos.LaneInteractive)
					if err != nil {
						return err
					}
					release()
				}
				return nil
			}},
		); err != nil {
			return nil, err
		}

		// The serving engines, cold then warm, keyed like a bundled row.
		wkey := fmt.Sprintf("bench-layers/%d", vi)
		// ModuleHash is supplied as gpa.Kernel does, so the warm path
		// does not re-pack the module on every call.
		req := &service.Request{Kind: service.KindAdvise, Module: mod, Prog: prog, ModuleHash: key, Launch: launch,
			SimSMs: 1, Seed: seed, Workload: wl, WorkloadKey: wkey}
		job := gpa.Job{Kind: gpa.JobAdvise, Kernel: k,
			Options: &gpa.Options{SimSMs: 1, Seed: seed, Workload: wl}, WorkloadKey: wkey}
		if r := eng.Do(ctx, job); r.Err != nil { // fills the gpa engine's cache, untimed
			return nil, fmt.Errorf("variant %d: gpa engine: %w", vi, r.Err)
		}
		if _, _, err := v.Build(); err != nil { // the variant's one cold build, untimed
			return nil, fmt.Errorf("variant %d: build: %w", vi, err)
		}
		if err := timed(
			step{"service.do_cold", func() error { _, err := svc.Do(ctx, req); return err }},
			step{"service.do_warm", func() error {
				for i := 0; i < loopCalls; i++ {
					if _, err := svc.Do(ctx, req); err != nil {
						return err
					}
				}
				return nil
			}},
			step{"gpa.engine_do_warm", func() error {
				for i := 0; i < loopCalls; i++ {
					if r := eng.Do(ctx, job); r.Err != nil {
						return r.Err
					}
				}
				return nil
			}},
			step{"kernels.build_memo", func() error {
				for i := 0; i < loopCalls; i++ {
					if _, _, err := v.Build(); err != nil {
						return err
					}
				}
				return nil
			}},
			step{"arch.lookup", func() error {
				for i := 0; i < loopCalls; i++ {
					if _, err := arch.Lookup("v100"); err != nil {
						return err
					}
				}
				return nil
			}},
		); err != nil {
			return nil, err
		}
		sb.addWithID(root, "layers.kernel", 0, root, rootStart, time.Now())

		counts["sass.instrs"] += float64(len(prog.Instrs))
		counts["sass.asm_bytes"] += float64(len(v.Asm))
		counts["cubin.blob_bytes"] += float64(len(blob))
		counts["gpusim.cycles"] += float64(cycles)
		counts["profiler.samples"] += float64(prof.TotalSamples)
		counts["gpa.result_bytes"] += float64(len(body))
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}

	// Median self time per kernel of every span name.
	self := selfTimes(sb.spans)
	byName := map[string][]float64{}
	for _, s := range sb.spans {
		byName[s.Name] = append(byName[s.Name], float64(self[s.ID]))
	}
	out := counts
	for _, ls := range layerSpans {
		ns := median(byName[ls.span]) / ls.calls
		if !ls.perNs {
			ns /= 1e3
		}
		out[ls.metric] = ns
	}
	return out, nil
}
