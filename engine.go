package gpa

import (
	"context"
	"fmt"
	"time"

	"gpa/internal/arch"
	"gpa/internal/obs"
	"gpa/internal/profiler"
	"gpa/internal/qos"
	"gpa/internal/service"
)

// Engine is the batch/serving front end of the pipeline: a bounded
// worker pool over a content-addressed per-stage artifact store, with
// singleflight deduplication (see internal/service). One engine is meant to be
// shared by everything that fans work out — cmd/gpad serves HTTP
// traffic through one, cmd/drift-check -store-dir replays the corpus
// through one, and library callers batch through DoAll/Sweep — so
// a machine-wide simulation budget is enforced in exactly one place.
//
// Every method takes a context.Context and honors cancellation
// end-to-end: a caller abandoning a queued job detaches before a
// worker slot is spent, a caller abandoning a coalesced job detaches
// without killing the shared simulation (the remaining waiters still
// get the result), and an in-flight simulation is canceled when its
// last waiter detaches. Per-job deadlines come from Job.Timeout or
// EngineOptions.DefaultTimeout, and EngineOptions.MaxQueue turns the
// engine into a load-shedding server that fails fast with ErrQueueFull
// instead of queueing without bound.
//
// The cache key is a digest of the kernel's canonical module bytes,
// launch configuration, architecture model, and every result-affecting
// option; the simulator is deterministic, so a cache hit returns
// byte-identical report text to a cold sequential run. N identical
// concurrent jobs cost one simulation. Results returned from the cache
// share pointers and must be treated as read-only.
type Engine struct {
	svc *service.Engine
}

// EngineOptions configures an Engine: Workers, CacheEntries, MaxQueue,
// DefaultTimeout, Store (see OpenStore) and QoS (a QoSConfig literal or
// ParseQoSConfig's output; NewEngine panics on one that does not
// validate). Every run reuses the stored artifacts of the stages before
// it: a profile job's output feeds a later advise job without
// re-simulation.
type EngineOptions = service.Options

// EngineStats is a snapshot of the engine's cache and scheduling
// counters (the numbers gpad exposes at /statsz).
type EngineStats = service.Stats

// TenantStats is the per-tenant slice of EngineStats.Tenants: DWRR
// weight plus served/shed/quota/dropped counters and the live queue
// depth for one tenant.
type TenantStats = service.TenantStats

// QoSConfig configures tenant-fair admission (see EngineOptions.QoS).
// The zero value is valid: one equal-weight default tenant, no quotas,
// no interactive reserve. Richer configs are struct literals (checked
// by Validate) or operator JSON parsed with ParseQoSConfig.
type QoSConfig = qos.Config

// TenantQoSConfig is one tenant's admission policy: DWRR weight and an
// optional token-bucket quota (requests/second + burst).
type TenantQoSConfig = qos.TenantConfig

// ParseQoSConfig parses and validates an operator-supplied JSON QoS
// config (unknown fields are rejected). cmd/gpad loads -qos-config
// files through this.
func ParseQoSConfig(data []byte) (QoSConfig, error) { return qos.ParseConfig(data) }

// Lane is a job's admission priority class. The engine schedules the
// interactive lane ahead of batch, keeps the interactive reserve's
// slots from batch, and abandons queued batch first on shutdown; lanes
// never affect what a job computes.
type Lane = qos.Lane

const (
	// LaneInteractive is the latency-sensitive lane (the zero value):
	// single advise/profile requests a person is waiting on.
	LaneInteractive = qos.LaneInteractive
	// LaneBatch is the throughput lane: sweeps and bulk jobs that
	// tolerate queueing and are abandoned first by a drain.
	LaneBatch = qos.LaneBatch
)

// NewEngine builds an engine (nil opts = defaults).
func NewEngine(opts *EngineOptions) *Engine {
	var o EngineOptions
	if opts != nil {
		o = *opts
	}
	return &Engine{svc: service.New(o)}
}

// JobKind selects which pipeline stage a job runs.
type JobKind = service.Kind

const (
	// JobMeasure simulates without sampling and reports cycles only.
	JobMeasure = service.KindMeasure
	// JobProfile runs the sampling profiler.
	JobProfile = service.KindProfile
	// JobAdvise runs the full pipeline and renders the advice report.
	JobAdvise = service.KindAdvise
)

// Job is one unit of work for the engine.
type Job struct {
	Kind   JobKind
	Kernel *Kernel
	// Options tunes the run exactly as for Kernel.Advise (nil =
	// defaults), Options.Parallelism included, except that 0 is resolved
	// when the job is granted a worker slot: max(1, GOMAXPROCS - others),
	// others being the jobs holding another slot, so a lone job fans out
	// over every core and concurrent ones share them out. Set it to 1
	// for a Workload that is not safe for concurrent use. Parallelism
	// never affects results.
	Options *Options
	// Timeout is this job's deadline, measured from admission (0 = the
	// engine's DefaultTimeout; negative = none even when a default is
	// set). Never affects a completed result.
	Timeout time.Duration
	// WorkloadKey names Options.Workload stably for caching: workloads
	// are opaque callbacks, so the engine refuses a job carrying one
	// without a key (ErrBadKernel). Reusing a key promises the workload
	// behaves identically. A keyless one-off run belongs to the direct
	// API (Kernel.Advise, Profile, Measure).
	WorkloadKey string
	// TraceID is the per-request trace identifier that request logs
	// carry and the v2 result schema echoes (cmd/gpad accepts it via
	// X-Request-Id or mints one). It never affects results: trace IDs
	// are excluded from the cache digest and every stage key, so jobs
	// differing only in TraceID share one simulation and byte-identical
	// responses.
	TraceID string
	// Tenant names who this job is billed to and scheduled as
	// (cmd/gpad accepts it via X-Tenant-Id; "" = the shared "default"
	// tenant). Like TraceID it never affects results: tenants are
	// excluded from the cache digest and stage keys, so identical jobs
	// from different tenants share one simulation — each tenant is
	// still billed and counted for its own request.
	Tenant string
	// Lane is the job's admission priority (zero = LaneInteractive).
	// Engine.Sweep and gpad's batch/sweep endpoints run on LaneBatch.
	Lane Lane
}

// JobResult is the outcome of one job: the engine's response — Key,
// Cached, Cycles, ElapsedMS, ProfileDigest — or Err, never both. The
// report and the profile are the accessors Report and Profile, because a
// result served from the artifact store (EngineOptions.Store) holds its
// encoded bytes and builds the structs only for a caller that asks. A
// JobAdvise result is its advice and report text; its profile is a
// JobProfile result of the same job, which the store serves without a
// second simulation. The response is embedded by value: setting a
// result's fields never reaches the response the engine shares with
// other callers.
type JobResult struct {
	service.Response
	// Err wraps one of the typed sentinels in errors.go (ErrCanceled,
	// ErrQueueFull, ErrBadKernel, ...); classify with errors.Is.
	Err error
}

// Report returns the advice report of a JobAdvise result — its advice
// and report text, with no Profile or Context (see Report) — and nil for
// other kinds. The wrapper is built per call; what it points at is not.
// The result of the job that led the run has that run's own advice.
// Every cached or coalesced result of one engine response shares the
// advice the response's stored bytes decode to, on the first call, once;
// treat it as read-only. A stored artifact that no longer decodes yields
// an error wrapping ErrInternal.
func (r JobResult) Report() (*Report, error) {
	if r.Kind != JobAdvise { // a failed result's Kind is the zero JobMeasure
		return nil, r.Err
	}
	advice, err := r.Advice()
	if err != nil {
		return nil, err
	}
	rep := &Report{Advice: advice}
	// The service rendered the same text when it produced the advice.
	text, _ := r.Response.Report() // decoded with the advice above
	rep.text.Store(&text)
	return rep, nil
}

// Profile returns the sampled profile of a JobProfile result (nil for
// the other kinds). It is lazy and can fail exactly as Report can.
func (r JobResult) Profile() (*profiler.Profile, error) {
	if r.Err != nil {
		return nil, r.Err
	}
	return r.Response.Profile()
}

// request converts a job to a service request. The request is returned
// by value: on the warm cache-hit path it never escapes the caller's
// stack (the service copies it only when starting a new flight).
func (j Job) request() (service.Request, error) {
	if j.Kernel == nil {
		return service.Request{}, fmt.Errorf("gpa: %w: engine job without kernel", ErrBadKernel)
	}
	// service.Request.normalized owns the engine's option defaults.
	o := normalize(j.Options)
	prog, err := j.Kernel.program()
	if err != nil {
		return service.Request{}, err
	}
	modHash, err := j.Kernel.moduleHash()
	if err != nil {
		return service.Request{}, fmt.Errorf("gpa: %w: %w", ErrBadKernel, err)
	}
	return service.Request{
		Kind:         j.Kind,
		Module:       j.Kernel.Module,
		Prog:         prog,
		ModuleHash:   modHash,
		Launch:       j.Kernel.Launch.config(),
		GPU:          o.GPU,
		SamplePeriod: o.SamplePeriod,
		SimSMs:       o.SimSMs,
		Seed:         o.Seed,
		Parallelism:  o.Parallelism,
		Timeout:      j.Timeout,
		Workload:     o.Workload,
		WorkloadKey:  j.WorkloadKey,
		TraceID:      j.TraceID,
		Tenant:       j.Tenant,
		Lane:         j.Lane,
	}, nil
}

func resultOf(resp *service.Response, err error) JobResult {
	if err != nil {
		return JobResult{Err: err}
	}
	return JobResult{Response: *resp}
}

// Do resolves one job through the engine's cache and worker pool. A
// canceled ctx detaches this caller promptly (see Engine).
func (e *Engine) Do(ctx context.Context, j Job) JobResult {
	req, err := j.request()
	if err != nil {
		return JobResult{Err: err}
	}
	return resultOf(e.svc.Do(ctx, &req))
}

// DoAll resolves jobs concurrently; the worker pool bounds how many
// simulate at once and identical jobs coalesce into one simulation.
// Results are positionally aligned with jobs. A canceled ctx abandons
// every unfinished job (finished slots keep their results).
func (e *Engine) DoAll(ctx context.Context, jobs []Job) []JobResult {
	results := make([]JobResult, len(jobs))
	var live []*service.Request
	liveIdx := make([]int, 0, len(jobs))
	for i, j := range jobs {
		req, err := j.request()
		if err != nil {
			results[i] = JobResult{Err: err}
			continue
		}
		live = append(live, &req)
		liveIdx = append(liveIdx, i)
	}
	resps, errs := e.svc.DoAll(ctx, live)
	for n, i := range liveIdx {
		results[i] = resultOf(resps[n], errs[n])
	}
	return results
}

// Sweep runs the job template once per listed architecture model
// concurrently, overriding Options.GPU per run (nil or empty gpus =
// every registered model, in registry order), and returns the jobs it
// ran and their results, positionally aligned: jobs[i].Arch() names the
// model of results[i], and jobs[i].EncodeResult encodes it. Sweeps are
// bulk work by definition, so every job runs on LaneBatch regardless of
// the template's Lane; the lane never affects results.
func (e *Engine) Sweep(ctx context.Context, j Job, gpus []*arch.GPU) ([]Job, []JobResult) {
	if len(gpus) == 0 {
		gpus = arch.All()
	}
	jobs := make([]Job, len(gpus))
	for i, g := range gpus {
		// Job.request() applies the remaining defaults.
		o := normalize(j.Options)
		o.GPU = g
		jobs[i] = j
		jobs[i].Options = &o
		jobs[i].Lane = LaneBatch
	}
	return jobs, e.DoAll(ctx, jobs)
}

// Shutdown drains the engine: new jobs are rejected with
// ErrShuttingDown, queued jobs are abandoned immediately, and
// in-flight simulations get until ctx's deadline before being
// canceled. A nil error means every in-flight job finished.
func (e *Engine) Shutdown(ctx context.Context) error { return e.svc.Shutdown(ctx) }

// Stats snapshots the engine's hit/miss/coalesce/run counters.
func (e *Engine) Stats() EngineStats { return e.svc.Stats() }

// StageLatency exposes the engine's per-stage pipeline latency
// histograms (assemble, simulate, blame, advise). It is an
// observability hook for the serving layer — cmd/gpad renders it at
// /metrics and records kernel-construction time into the assemble
// histogram — and returns an internal recorder type on purpose:
// latency histograms are operational surface, not API contract.
func (e *Engine) StageLatency() *obs.StageLatency { return e.svc.StageLatency() }
