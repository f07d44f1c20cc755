// Package service is the serving subsystem in front of the Figure 2
// pipeline: a bounded worker-pool job engine with a content-addressed
// result cache. It turns the one-kernel-at-a-time advisor into
// something a long-running daemon (cmd/gpad) or a batch driver
// (gpa.Engine, cmd/gpa-bench) can push heavy traffic through.
//
// A Request names a kernel module, launch, architecture model, and the
// result-affecting options; its Digest — SHA-256 of the canonical
// module bytes plus every result-affecting field — is the cache key.
// The engine resolves each request in three tiers: an LRU result cache
// (hit: no simulation), a singleflight table (N identical concurrent
// requests share ONE simulation), and finally a worker-bounded run
// of the pipeline (simulate / profile / blame / advise via the same
// internal packages the gpa API composes). Worker slots are granted by
// a tenant-aware admission scheduler (internal/qos): per-tenant queues
// under deficit-weighted round robin, an interactive lane that
// preempts queued batch work, per-tenant token-bucket quotas shedding
// over-quota callers with ErrQuotaExceeded, and a brownout controller
// shedding batch work first when queued-wait p99 says the engine is
// saturated. Tenant and lane are transport-only metadata: they decide
// who runs next, never what a run computes, and are excluded from the
// digest and every stage key exactly like TraceID.
//
// Cancellation contract: Do takes a context.Context and honors it at
// every tier. A caller abandoning a queued request detaches before a
// worker slot is spent; a caller abandoning a coalesced request
// detaches from the flight without killing the shared run (the other
// waiters still get the result), and the run itself is canceled only
// when its last waiter detaches. Per-request deadlines come from
// Request.Timeout (falling back to Options.DefaultTimeout), and a
// bounded admission queue sheds excess load with ErrQueueFull instead
// of queueing without limit. All cancellation errors wrap
// apierr.ErrCanceled plus the original ctx.Err().
//
// Determinism contract: the simulator is bit-identical at every
// parallelism level, and cached responses are stored verbatim, so a
// cache hit returns byte-identical report text to a cold sequential
// run. Parallelism is therefore excluded from the digest. Responses
// are shared between callers and must be treated as immutable.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gpa/internal/apierr"
	"gpa/internal/arch"
	"gpa/internal/blamer"
	"gpa/internal/gpusim"
	"gpa/internal/lru"
	"gpa/internal/obs"
	"gpa/internal/profiler"
	"gpa/internal/qos"
	"gpa/internal/sass"
	"gpa/internal/store"
	"gpa/internal/structure"

	adv "gpa/internal/advisor"
)

// Kind selects which pipeline stage a request runs.
type Kind int

const (
	// KindMeasure simulates without sampling and reports cycles only.
	KindMeasure Kind = iota
	// KindProfile runs the sampling profiler and reports the profile.
	KindProfile
	// KindAdvise runs the full pipeline: profile, blame, optimizer
	// matching, estimation, ranking, and report rendering.
	KindAdvise
)

// String names the kind ("measure", "profile", "advise").
func (k Kind) String() string {
	switch k {
	case KindMeasure:
		return "measure"
	case KindProfile:
		return "profile"
	case KindAdvise:
		return "advise"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind resolves a kind name; the empty string means advise.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(s) {
	case "", "advise":
		return KindAdvise, nil
	case "profile":
		return KindProfile, nil
	case "measure":
		return KindMeasure, nil
	}
	//gpa:lint-allow apierrlint gpad maps ParseKind failures to 400 bad_request at the call site, before taxonomy classification
	return 0, fmt.Errorf("service: unknown kind %q (want advise, profile, or measure)", s)
}

// Request is one unit of work for the engine.
type Request struct {
	Kind   Kind
	Module *sass.Module
	// Prog optionally supplies the module's already-flattened program
	// (gpa.Kernel caches one); nil loads it on demand. It must belong
	// to Module.
	Prog *gpusim.Program
	// ModuleHash optionally supplies the SHA-256 of the module's
	// canonical cubin encoding (gpa.Kernel caches one); zero means the
	// digest re-packs the module on demand. Supplying it keeps the
	// warm cache-hit path free of per-request module encoding.
	ModuleHash [32]byte
	Launch     gpusim.LaunchConfig
	// GPU is the architecture model (nil = the paper's V100).
	GPU *arch.GPU
	// SamplePeriod in cycles (0 = 64; ignored and normalized away for
	// KindMeasure, which never samples).
	SamplePeriod int
	// SimSMs bounds detailed SM simulation (0 = 4).
	SimSMs int
	Seed   uint64
	// Parallelism bounds concurrent SM simulation inside this one run
	// (0 = gpusim's default: GOMAXPROCS, capped by SimSMs — a run takes
	// whatever cores the other workers leave idle, and when none are
	// idle the Go scheduler shares them out). Set 1 for a Workload that
	// is not safe for concurrent use. Excluded from the digest —
	// results are identical at every level.
	Parallelism int
	// Timeout is this request's deadline, measured from admission
	// (0 = the engine's DefaultTimeout; negative = none even when a
	// default is set). Excluded from the digest — deadlines never
	// affect a completed result.
	Timeout time.Duration
	// Blamer tunes the pruning/apportioning heuristics (KindAdvise).
	Blamer blamer.Options
	// Workload supplies branch trips and memory behaviour. Workloads
	// are opaque callbacks, so a request carrying one is uncacheable
	// unless WorkloadKey names it stably (same key ⇒ same behaviour).
	Workload    gpusim.Workload
	WorkloadKey string
	// TraceID is the per-request trace identifier (accepted from the
	// client or minted by the server) that request logs and the v2
	// result schema echo. It is transport-level observability and is
	// deliberately excluded from the result digest and every stage key
	// — two requests differing only in TraceID share one cache entry,
	// one flight, and byte-identical responses, and drift-check output
	// can never depend on who asked. Pinned by
	// TestTraceIDExcludedFromDigest.
	TraceID string
	// Tenant identifies the requesting client class for admission
	// scheduling, quotas, and per-tenant accounting ("" = the default
	// tenant). Like TraceID it is transport-only metadata, deliberately
	// excluded from the result digest and every stage key: two tenants
	// requesting the same kernel share one cache entry and one flight
	// (the hit is billed to both quota buckets but simulated once), and
	// results can never depend on who asked. Pinned by
	// TestTenantExcludedFromDigest.
	Tenant string
	// Lane selects the admission priority lane (zero value =
	// interactive; cmd/gpad routes /v1/batch and /v1/sweep to
	// qos.LaneBatch). Excluded from the digest for the same reason as
	// Tenant: scheduling priority cannot affect a completed result.
	Lane qos.Lane
}

// defaultGPU is the shared default architecture model (the paper's
// V100). It is resolved once so every nil-GPU request digests and runs
// against one immutable instance instead of minting a fresh model per
// request; nothing in the pipeline mutates a Config's GPU.
var defaultGPU = arch.VoltaV100()

// normalized returns a copy with defaults resolved, so the digest and
// the execution path can never disagree about what actually ran.
func (r *Request) normalized() Request {
	n := *r
	if n.GPU == nil {
		n.GPU = defaultGPU
	}
	if n.SimSMs == 0 {
		n.SimSMs = 4
	}
	if n.Kind == KindMeasure {
		n.SamplePeriod = 0 // measure never samples
	} else if n.SamplePeriod <= 0 {
		n.SamplePeriod = 64
	}
	return n
}

// Response is the result of one request. Responses are shared: a cache
// or singleflight hit returns the same inner pointers to every caller,
// so whatever Profile, Advice and Context hand out must be treated as
// read-only.
//
// The scalar fields are always set. Profile, Advice and Report are
// accessors because a response served from the on-disk artifact store
// holds the bytes it will be encoded as, not the structs: they decode
// on first use, once per artifact, and fail with an error wrapping
// apierr.ErrInternal when the stored artifact has vanished or does not
// decode to what its header declared. On a response a pipeline run
// produced they return that run's values and cannot fail.
type Response struct {
	// Key is the request digest ("" for uncacheable requests).
	Key string
	// Cached is true when the response was served without running a
	// simulation (result-cache hit or singleflight coalescing).
	Cached bool
	Kind   Kind
	// Cycles is the simulated kernel duration.
	Cycles int64
	// ElapsedMS is the wall-clock cost in milliseconds of the pipeline
	// run that produced this response. Cache and singleflight hits
	// return the original run's value (the cost the cache avoided), so
	// a hit stays byte-identical to the run it shares.
	ElapsedMS float64
	// ProfileDigest is the profile's stable content digest (drift
	// checking across builds and deployments).
	ProfileDigest string
	// Context is the analysis context of the run that produced the
	// advice (KindAdvise): the blamer's per-function results and the
	// profile's function views, about as large again as everything else
	// a response holds. Only the caller that led that run gets it. It
	// is nil on every shared view — result-cache hits and coalesced
	// followers (asCached drops it, so a cached response does not pin
	// it until eviction) — and on a response assembled from stage
	// artifacts, which never had one.
	Context *adv.Context

	// prof (KindProfile, and KindAdvise when a run produced it) and adv
	// (KindAdvise) are the stage artifacts behind the accessors; eng
	// resolves and counts their lazy halves.
	prof *profileArtifact
	adv  *adviceArtifact
	eng  *Engine

	// freshTail is the wire tail a cold run encoded for its advice put.
	// Only the flight leader's own copy carries it (asCached drops it):
	// it saves that caller's encode and dies with its request, so a
	// cached response pins no tail nobody asked for twice.
	freshTail []byte

	// shared is what every copy of one response has in common; it is a
	// pointer so the cached shallow copy shares it.
	shared *respShared
}

// respShared holds what is derived from a response at most once however
// many cache hits it serves.
type respShared struct {
	memoOnce sync.Once
	memo     any

	// encodes counts Tail calls. The tail is kept from the second one
	// on: a response that is encoded once — a cold run nobody asks for
	// again — would otherwise pin ~15 KB until eviction for no later
	// request to use.
	encodes  atomic.Uint32
	tailOnce sync.Once
	tail     []byte
	tailErr  error
}

// Memo returns a value derived from this response, building it at most
// once per underlying response (cache hits and coalesced copies share
// the memo). The gpa layer uses it to avoid re-materializing its Report
// wrapper on every warm cache hit. Responses not produced by an engine
// have no memo and just invoke build.
func (r *Response) Memo(build func() any) any {
	m := r.shared
	if m == nil {
		return build()
	}
	m.memoOnce.Do(func() { m.memo = build() })
	return m.memo
}

// Profile returns the sampled profile (KindProfile and KindAdvise; nil
// for KindMeasure). For a store-served advise response this is the one
// access that reads the profile stage.
func (r *Response) Profile() (*profiler.Profile, error) {
	pa := r.prof
	if pa == nil {
		if r.adv == nil {
			return nil, nil
		}
		var err error
		if pa, err = r.adv.profileArtifact(r.eng); err != nil {
			return nil, err
		}
	}
	return pa.profile(r.eng)
}

// Advice returns the ranked advice (KindAdvise; nil otherwise).
func (r *Response) Advice() (*adv.Advice, error) {
	if r.adv == nil {
		return nil, nil
	}
	advice, _, err := r.adv.decoded(r.eng)
	return advice, err
}

// Report returns the rendered Figure 8-style report text (KindAdvise;
// empty otherwise), byte-identical between a cache hit, a store hit and
// the cold run.
func (r *Response) Report() (string, error) {
	if r.adv == nil {
		return "", nil
	}
	_, report, err := r.adv.decoded(r.eng)
	return report, err
}

// Tail returns the response's wire tail: the gpa-result/2 encoding from
// "cycles" through the closing brace and newline, the part shared by
// every request this response serves (the caller writes its own head in
// front; see gpa.Job.EncodeResult). The slice is read-only. A
// store-served advise response returns the bytes its blob holds; any
// other encodes, and keeps the encoding from its second call on.
func (r *Response) Tail() ([]byte, error) {
	if r.adv != nil && r.adv.doc != nil {
		return r.adv.doc[len(tailOpen):], nil
	}
	m := r.shared
	if m == nil {
		return r.encodeTail()
	}
	n := m.encodes.Add(1)
	if r.freshTail != nil {
		return r.freshTail, nil
	}
	if n == 1 {
		return r.encodeTail()
	}
	m.tailOnce.Do(func() { m.tail, m.tailErr = r.encodeTail() })
	return m.tail, m.tailErr
}

// encodeTail encodes the tail afresh.
func (r *Response) encodeTail() ([]byte, error) {
	doc, err := r.tailDoc()
	if err != nil {
		return nil, err
	}
	return doc[len(tailOpen):], nil
}

// tailDoc is the one definition of the tail encoding: the document the
// advice put stores, and, after tailOpen, what the wire carries.
func (r *Response) tailDoc() ([]byte, error) {
	t := wireTail{Cycles: r.Cycles, ElapsedMS: r.ElapsedMS, ProfileDigest: r.ProfileDigest}
	switch r.Kind {
	case KindAdvise:
		advice, report, err := r.adv.decoded(r.eng)
		if err != nil {
			return nil, err
		}
		t.Advice, t.Report = advice.Entries, report
	case KindProfile:
		// Advise results leave the raw samples out to stay compact.
		var err error
		if t.Profile, err = r.Profile(); err != nil {
			return nil, err
		}
	}
	return t.encode()
}

// Stats is a point-in-time snapshot of the engine's counters.
type Stats struct {
	// Hits counts result-cache hits (no simulation, no waiting).
	Hits int64 `json:"hits"`
	// Misses counts requests that found neither a cached result nor an
	// in-flight duplicate and started a new pipeline run.
	Misses int64 `json:"misses"`
	// Coalesced counts requests that joined an identical in-flight
	// request (singleflight followers: N concurrent duplicates cost
	// Misses=1, Coalesced=N-1, Runs=1).
	Coalesced int64 `json:"coalesced"`
	// Bypass counts uncacheable requests (workload without a key).
	Bypass int64 `json:"bypass"`
	// Runs counts actual pipeline executions. A run may still reuse
	// individual stage artifacts (e.g. advise over a stored profile);
	// Sims counts the simulations that actually happened.
	Runs int64 `json:"runs"`
	// Sims counts actual simulator invocations (gpusim runs and
	// profile collections). Runs-with-stage-reuse keep Sims flat: a
	// freshly restarted engine serving from a warm on-disk store
	// reports Runs==0 and Sims==0.
	Sims int64 `json:"sims"`
	// StageServed counts requests satisfied entirely from stage
	// artifacts without a pipeline run (no Runs increment).
	StageServed int64 `json:"stageServed"`
	// StructureBuilds counts module front-end structure analyses. An
	// arch sweep over one module performs exactly one.
	StructureBuilds int64 `json:"structureBuilds"`
	// Errors counts failed pipeline executions (errors are not cached).
	Errors int64 `json:"errors"`
	// Panics counts pipeline runs that panicked and were contained at
	// the flight boundary: the run's waiters got an error wrapping
	// apierr.ErrInternal, nothing was cached, the process lived on.
	Panics int64 `json:"panics"`
	// Canceled counts callers that abandoned a request — context
	// canceled or deadline expired — while it was queued, in flight, or
	// coalesced onto a shared flight.
	Canceled int64 `json:"canceled"`
	// Shed counts requests rejected with ErrQueueFull because the
	// admission queue was at capacity.
	Shed int64 `json:"shed"`
	// QuotaShed counts requests rejected with ErrQuotaExceeded because
	// the tenant's token bucket was empty (HTTP 429 at gpad).
	QuotaShed int64 `json:"quotaShed"`
	// BrownoutShed counts requests shed by the overload controller
	// (ErrOverloaded): the engine was saturated and degraded batch-lane
	// work to protect interactive latency.
	BrownoutShed int64 `json:"brownoutShed"`
	// QosDropped counts admitted waiters that left the queue ungranted:
	// the caller canceled while queued, or a drain abandoned queued
	// batch work.
	QosDropped int64 `json:"qosDropped"`
	// Evictions counts LRU cache evictions.
	Evictions int64 `json:"evictions"`
	// Inflight is the number of requests currently executing or queued
	// for a worker slot.
	Inflight int64 `json:"inflight"`
	// Queued is the number of admitted requests currently waiting for a
	// worker slot (Inflight minus the ones actually running).
	Queued int64 `json:"queued"`
	// QueueCapacity is the admission bound beyond the worker pool
	// (Options.MaxQueue; 0 = unbounded admission).
	QueueCapacity int64 `json:"queueCapacity"`
	// InteractiveQueued / BatchQueued split Queued by admission lane.
	InteractiveQueued int64 `json:"interactiveQueued"`
	BatchQueued       int64 `json:"batchQueued"`
	// BrownoutLevel is the overload controller's current level (0 =
	// healthy; at the configured MaxLevel all batch arrivals are shed).
	BrownoutLevel int64 `json:"brownoutLevel"`
	// CacheEntries is the current number of cached responses.
	CacheEntries int `json:"cacheEntries"`
	// Workers is the engine's worker-pool bound.
	Workers int `json:"workers"`
	// PoolGets / PoolHits are the simulator's per-run state-arena
	// counters (gpusim.PoolStats): how many arenas were acquired
	// process-wide and how many were recycled pool hits. A warm engine
	// should show PoolHits tracking PoolGets.
	PoolGets int64 `json:"poolGets"`
	PoolHits int64 `json:"poolHits"`
	// FFPeriodsDetected / FFCyclesSkipped / FFFallbacks are the
	// simulator's process-wide steady-state memoization counters
	// (gpusim.FFStats): periods locked and fast-forwarded, simulated
	// cycles skipped analytically instead of stepped, and detected
	// periods abandoned without skipping. Periodic workloads show
	// FFCyclesSkipped dwarfing stepped cycles; aperiodic ones show all
	// three near zero.
	FFPeriodsDetected int64 `json:"ffPeriodsDetected"`
	FFCyclesSkipped   int64 `json:"ffCyclesSkipped"`
	FFFallbacks       int64 `json:"ffFallbacks"`
	// StageHits / StageMisses / StageEvictions are the in-memory
	// artifact-store counters (per-stage LRU lookups).
	StageHits      int64 `json:"stageHits"`
	StageMisses    int64 `json:"stageMisses"`
	StageEvictions int64 `json:"stageEvictions"`
	// StoreHits / StoreMisses / StorePuts / StoreCorrupt / StoreErrors
	// are the on-disk artifact-store counters. StoreCorrupt counts
	// blobs rejected by verification (truncation, bit flips, wrong
	// schema, unreadable files) and degraded to recomputed misses.
	StoreHits    int64 `json:"storeHits"`
	StoreMisses  int64 `json:"storeMisses"`
	StorePuts    int64 `json:"storePuts"`
	StoreCorrupt int64 `json:"storeCorrupt"`
	StoreErrors  int64 `json:"storeErrors"`
	// StageDecodes counts stage payloads decoded into their struct form
	// (a profile, or an advice with its report). Serving a stored advise
	// response decodes nothing; the counter moves when a run needs a
	// stored profile, a profile response is encoded, or a caller asks a
	// store-served response for Profile, Advice or Report.
	StageDecodes int64 `json:"stageDecodes"`
	// GPUModelHashes is the number of distinct *arch.GPU instances whose
	// model digest is memoized, process-wide. A server that shares one
	// instance per model holds it at the number of models in use; growth
	// with traffic means some caller mints a fresh model per request and
	// pays a marshal and a hash for it every time.
	GPUModelHashes int `json:"gpuModelHashes"`
	// AllocsPerJob is the mean number of heap allocations per served
	// job (hits, coalesced, bypassed, and executed alike) since the
	// engine was created, measured from runtime.MemStats.Mallocs. It is
	// process-wide, so concurrent non-engine work inflates it; on a
	// dedicated gpad it is the serving hot path's allocation rate.
	AllocsPerJob float64 `json:"allocsPerJob"`
	// Tenants is the per-tenant accounting snapshot (served, shed,
	// quota, queue depth) keyed by tenant ID. Cardinality is bounded by
	// the scheduler's MaxTenants overflow class, so gpad can render it
	// as labeled /metrics series within a closed label set.
	Tenants map[string]TenantStats `json:"tenants,omitempty"`
}

// TenantStats is one tenant's accounting snapshot (see qos.TenantStats).
type TenantStats = qos.TenantStats

// Options configures an engine.
type Options struct {
	// Workers bounds concurrent pipeline executions (0 = GOMAXPROCS).
	Workers int
	// CacheEntries bounds the LRU result cache (0 = 512, negative
	// disables caching; singleflight coalescing still applies).
	CacheEntries int
	// MaxQueue bounds how many pipeline runs may wait for a worker slot
	// beyond the Workers already running; a run arriving past the bound
	// is shed immediately with ErrQueueFull (0 = unbounded, the
	// pre-load-shedding behaviour; negative = no queue at all).
	MaxQueue int
	// DefaultTimeout is the per-request deadline applied to every
	// request whose own Timeout is zero (0 = none).
	DefaultTimeout time.Duration
	// StageEntries bounds each per-stage in-memory artifact cache of
	// the store layer (0 = 512 per stage; negative disables stage
	// caching entirely, leaving only the end-to-end result cache).
	StageEntries int
	// Disk is the persistent artifact backend (internal/store): stage
	// outputs survive restarts and are shared across engines pointed at
	// one directory. nil = in-memory stages only.
	Disk *store.Disk
	// QoS is the tenant-aware admission configuration (nil = one
	// default tenant, no quotas, no interactive reserve, brownout off —
	// the flat pre-tenancy behaviour plus FIFO fairness). It must be
	// Validate-clean; qos.ParseConfig and the qos builders guarantee
	// that, and New panics on an invalid config (a programmer error,
	// not a runtime condition).
	QoS *qos.Config
}

// Engine is the concurrent advice engine: a worker pool with a
// content-addressed result cache and singleflight deduplication. Safe
// for concurrent use.
type Engine struct {
	// adm is the tenant-aware admission scheduler (internal/qos): it
	// owns the worker-slot accounting, the per-tenant queues and
	// quotas, and the brownout controller that the engine's old flat
	// Workers+MaxQueue semaphore pair has been replaced by.
	adm            *qos.Scheduler
	defaultTimeout time.Duration

	// baseCtx parents every flight's run context, so Shutdown's hard
	// stop can cancel all in-flight simulations at once (with
	// ErrShuttingDown as the cause, so their failures surface as
	// shutdown, not as a client-side cancel).
	baseCtx    context.Context
	baseCancel context.CancelCauseFunc
	// drainCh is closed when Shutdown begins: new requests are
	// rejected and queued (not yet running) runs are abandoned.
	drainCh chan struct{}

	// stages/disk are the per-stage artifact store backends (see
	// internal/store and stages.go): consulted before each pipeline
	// stage runs, written after it completes. stages is nil when stage
	// caching is disabled; disk is nil without a -store-dir.
	stages *store.Memory
	disk   *store.Disk

	mu       sync.Mutex
	draining bool
	// cache holds each result's prebuilt Cached=true view (see asCached),
	// so every hit returns the same pointer without copying; nil when
	// caching is disabled.
	cache  *lru.Cache[digestKey, *Response]
	flight map[digestKey]*flightCall

	// baseMallocs is the process's cumulative heap-object allocation
	// count at engine creation (heapAllocObjects); Stats reports the
	// process-wide allocation delta per served job against it.
	baseMallocs uint64

	// lat records per-stage pipeline latencies (assemble, simulate,
	// blame, advise) for the /metrics histograms. Stages record only
	// when they actually execute, so the counts correlate with
	// runs/sims, not request volume.
	lat *obs.StageLatency

	stats struct {
		hits, misses, coalesced, bypass, runs, errors, canceled, shed, evictions, inflight int64
		sims, stageServed, structureBuilds, stageDecodes, panics                           int64
	}
}

// flightCall tracks one in-flight execution joined by duplicates.
// waiters is guarded by Engine.mu; when it drops to zero every caller
// has detached and cancel reclaims the run.
type flightCall struct {
	done    chan struct{}
	cancel  context.CancelFunc
	waiters int
	resp    *Response
	// cachedResp is the shared Cached=true view handed to coalesced
	// followers, built once when the run completes.
	cachedResp *Response
	err        error
}

// New builds an engine.
func New(opts Options) *Engine {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	entries := opts.CacheEntries
	if entries == 0 {
		entries = 512
	}
	qosCfg := qos.Config{}
	if opts.QoS != nil {
		if err := opts.QoS.Validate(); err != nil {
			panic(fmt.Sprintf("service: invalid QoS config: %v", err))
		}
		qosCfg = *opts.QoS
	}
	//gpa:lint-allow ctxfirst engine-lifetime base context, not a per-call one; Shutdown cancels it and per-request ctxs layer on top
	baseCtx, baseCancel := context.WithCancelCause(context.Background())
	e := &Engine{
		adm:            qos.NewScheduler(workers, opts.MaxQueue, qosCfg),
		defaultTimeout: opts.DefaultTimeout,
		baseCtx:        baseCtx,
		baseCancel:     baseCancel,
		drainCh:        make(chan struct{}),
		flight:         make(map[digestKey]*flightCall),
		stages:         store.NewMemory(opts.StageEntries), // nil for StageEntries < 0
		disk:           opts.Disk,
		baseMallocs:    heapAllocObjects(),
		lat:            obs.NewStageLatency(),
	}
	if entries > 0 {
		e.cache = lru.New[digestKey, *Response](entries, 0)
	}
	return e
}

// withDeadline applies the request's deadline (or the engine default)
// to ctx; the returned cancel must run even on the no-deadline path.
func (e *Engine) withDeadline(ctx context.Context, req *Request) (context.Context, context.CancelFunc) {
	timeout := req.Timeout
	if timeout == 0 {
		timeout = e.defaultTimeout
	}
	if timeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, timeout)
}

// Do resolves one request: result cache, then singleflight, then a
// worker-bounded pipeline run. A canceled ctx detaches this caller
// wherever it is waiting — queued, running, or coalesced — and returns
// an error wrapping ErrCanceled; the shared run itself is canceled
// only when its last waiter detaches. Errors are returned to every
// waiter of the failed flight and are never cached.
func (e *Engine) Do(ctx context.Context, req *Request) (*Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := apierr.CtxErr(ctx); err != nil {
		e.count(&e.stats.canceled)
		return nil, fmt.Errorf("service: %w", err)
	}
	select {
	case <-e.drainCh:
		return nil, fmt.Errorf("service: %w", apierr.ErrShuttingDown)
	default:
	}
	// Quota is charged before the cache and singleflight tiers: every
	// request costs its tenant one token — cache hits and coalesced
	// followers included, so a shared run is billed to every bucket
	// that asked for it — and over-quota work is shed before costing
	// anything.
	if err := e.adm.Charge(req.Tenant); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	ctx, cancel := e.withDeadline(ctx, req)
	defer cancel()

	key, cacheable, err := req.digest()
	if err != nil {
		return nil, err
	}
	if !cacheable {
		e.count(&e.stats.bypass)
		// Uncacheable requests cannot share a flight, but the caller's
		// ctx still cancels the run directly.
		resp, err := e.execute(ctx, req, "")
		if err == nil {
			e.adm.Served(req.Tenant)
		}
		return resp, err
	}

	e.mu.Lock()
	if e.cache != nil {
		if resp, ok := e.cache.Get(key); ok {
			e.stats.hits++
			e.mu.Unlock()
			e.adm.Served(req.Tenant)
			// The cached view is prebuilt at insertion: the warm hit
			// path performs no allocation at all.
			return resp, nil
		}
	}
	c, joined := e.flight[key]
	if joined {
		c.waiters++
		e.stats.coalesced++
		e.mu.Unlock()
	} else {
		runCtx, cancelRun := context.WithCancel(e.baseCtx)
		c = &flightCall{done: make(chan struct{}), cancel: cancelRun, waiters: 1}
		e.flight[key] = c
		e.stats.misses++
		e.mu.Unlock()
		// The run is owned by the flight, not by this caller: it keeps
		// going if this caller detaches while other waiters remain, and
		// dies (via cancelRun) when the last waiter detaches. The
		// request is copied so the caller's Request (often stack-
		// allocated by the gpa layer) never escapes into the goroutine.
		reqCopy := *req
		keyCopy := key // keeps the caller's key off the heap on hit paths
		keyStr := hex.EncodeToString(key[:])
		go func() {
			resp, err := e.execute(runCtx, &reqCopy, keyStr)
			cancelRun()
			e.mu.Lock()
			// detach may already have removed an abandoned flight and a
			// fresh caller may have installed a new one under the same
			// key; only remove our own entry.
			if e.flight[keyCopy] == c {
				delete(e.flight, keyCopy)
			}
			c.resp, c.err = resp, err
			if resp != nil {
				c.cachedResp = asCached(resp)
			}
			if err == nil && e.cache != nil {
				e.stats.evictions += int64(e.cache.Add(keyCopy, c.cachedResp, 0))
			}
			e.mu.Unlock()
			close(c.done)
		}()
	}

	select {
	case <-c.done:
		if c.err != nil {
			return nil, c.err
		}
		e.adm.Served(req.Tenant)
		if joined {
			return c.cachedResp, nil
		}
		return c.resp, nil
	case <-ctx.Done():
		e.detach(key, c)
		return nil, fmt.Errorf("service: %w", apierr.Canceled(ctx.Err()))
	}
}

// detach removes one waiter from a flight; the last waiter out cancels
// the shared run (nobody is left to consume its result) and unlinks
// the flight immediately, so a fresh caller arriving while the
// canceled run unwinds starts a new run instead of inheriting the
// abandoned flight's cancellation error.
func (e *Engine) detach(key digestKey, c *flightCall) {
	e.mu.Lock()
	e.stats.canceled++
	c.waiters--
	last := c.waiters == 0
	if last && e.flight[key] == c {
		delete(e.flight, key)
	}
	e.mu.Unlock()
	if last {
		c.cancel()
	}
}

// count bumps one stats counter under the engine lock.
func (e *Engine) count(f *int64) {
	e.mu.Lock()
	*f++
	e.mu.Unlock()
}

// DoAll resolves requests concurrently (one goroutine each; execution
// is bounded by the worker pool, and identical requests coalesce).
// Results are positionally aligned with reqs; each slot carries either
// a response or an error. A canceled ctx abandons every unfinished
// request.
func (e *Engine) DoAll(ctx context.Context, reqs []*Request) ([]*Response, []error) {
	resps := make([]*Response, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = e.Do(ctx, reqs[i])
		}(i)
	}
	wg.Wait()
	return resps, errs
}

// Shutdown drains the engine: new requests are rejected with
// ErrShuttingDown, queued batch-lane runs are abandoned immediately,
// queued interactive-lane runs keep being scheduled (the
// latency-sensitive queue drains before the engine gives up), and
// in-flight simulations are given until ctx's deadline to finish.
// When the deadline expires first, every remaining simulation — and
// every still-queued interactive run — is canceled (the cancel
// checkpoints make them return promptly) and Shutdown keeps waiting
// for them to unwind before returning ctx's error. A nil error means
// the engine drained cleanly. Shutdown is idempotent.
func (e *Engine) Shutdown(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	e.mu.Lock()
	if !e.draining {
		e.draining = true
		close(e.drainCh)
	}
	e.mu.Unlock()
	e.adm.Drain()

	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	hardStopped := false
	for {
		e.mu.Lock()
		idle := e.stats.inflight == 0
		e.mu.Unlock()
		if idle {
			if hardStopped {
				return fmt.Errorf("service: shutdown: %w", apierr.Canceled(ctx.Err()))
			}
			return nil
		}
		select {
		case <-ctx.Done():
			if !hardStopped {
				hardStopped = true
				// Cancel every in-flight simulation, tagging the cause so
				// their errors report "shutting down" rather than a
				// client-side cancel, and abandon any interactive work
				// still queued (its grace period is over).
				e.baseCancel(apierr.ErrShuttingDown)
				e.adm.Halt()
			}
		case <-tick.C:
		}
	}
}

// heapAllocObjects reads the process's cumulative heap-object
// allocation count via runtime/metrics, which — unlike
// runtime.ReadMemStats — does not stop the world, so scraping /statsz
// never pauses the serving hot path it monitors.
func heapAllocObjects() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() == metrics.KindUint64 {
		return sample[0].Value.Uint64()
	}
	return 0
}

// StageLatency exposes the engine's per-stage latency recorder so the
// serving layer (cmd/gpad) can render it at /metrics and fold its own
// assemble-time observations (kernel construction happens above the
// engine) into the same histograms.
func (e *Engine) StageLatency() *obs.StageLatency { return e.lat }

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	allocs := heapAllocObjects()
	poolGets, poolHits := gpusim.PoolStats()
	ffPeriods, ffCycles, ffFallbacks := gpusim.FFStats()
	stageStats := e.stages.Stats() // nil-safe: zero Stats without stage caching
	var diskStats store.Stats
	if e.disk != nil {
		diskStats = e.disk.Stats()
	}
	adm := e.adm.Snapshot()
	gpuHashes.RLock()
	gpuModelHashes := len(gpuHashes.m)
	gpuHashes.RUnlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	st := Stats{
		GPUModelHashes: gpuModelHashes,

		Hits:          e.stats.hits,
		Misses:        e.stats.misses,
		Coalesced:     e.stats.coalesced,
		Bypass:        e.stats.bypass,
		Runs:          e.stats.runs,
		Sims:          e.stats.sims,
		StageServed:   e.stats.stageServed,
		Errors:        e.stats.errors,
		Panics:        e.stats.panics,
		Canceled:      e.stats.canceled,
		Shed:          e.stats.shed,
		QuotaShed:     adm.QuotaShed,
		BrownoutShed:  adm.BrownoutShed,
		QosDropped:    adm.Dropped,
		Evictions:     e.stats.evictions,
		Inflight:      e.stats.inflight,
		Queued:        adm.Queued,
		QueueCapacity: e.adm.QueueCapacity(),

		InteractiveQueued: adm.InteractiveQueued,
		BatchQueued:       adm.BatchQueued,
		BrownoutLevel:     int64(adm.BrownoutLevel),
		Tenants:           adm.Tenants,

		CacheEntries: e.cache.Len(),
		Workers:      e.adm.Workers(),
		PoolGets:     poolGets,
		PoolHits:     poolHits,

		FFPeriodsDetected: ffPeriods,
		FFCyclesSkipped:   ffCycles,
		FFFallbacks:       ffFallbacks,

		StructureBuilds: e.stats.structureBuilds,
		StageHits:       stageStats.Hits,
		StageMisses:     stageStats.Misses,
		StageEvictions:  stageStats.Evictions,
		StoreHits:       diskStats.Hits,
		StoreMisses:     diskStats.Misses,
		StorePuts:       diskStats.Puts,
		StoreCorrupt:    diskStats.Corrupt,
		StoreErrors:     diskStats.Errors,
		StageDecodes:    e.stats.stageDecodes,
	}
	if jobs := st.Hits + st.Misses + st.Coalesced + st.Bypass; jobs > 0 {
		st.AllocsPerJob = float64(allocs-e.baseMallocs) / float64(jobs)
	}
	return st
}

// asCached shallow-copies a response with the Cached flag set; the
// inner pointers stay shared (read-only by contract), except what only
// the flight leader's own request has a use for: its encoded tail and
// its analysis Context.
func asCached(r *Response) *Response {
	c := *r
	c.Cached = true
	c.freshTail = nil
	c.Context = nil
	return &c
}

// execute runs the pipeline for one request: the per-stage artifact
// store first (a full-stage hit costs no admission slot and no run),
// then the admission queue, then a worker slot (abandoned early if ctx
// dies or the engine drains), then the pipeline itself under the run
// context — with each Figure 2 stage consulting the store before it
// runs and publishing its artifact after.
func (e *Engine) execute(ctx context.Context, req *Request, key string) (resp *Response, err error) {
	// The flight boundary: a panic below — in a stage, or in the
	// caller-supplied Workload the simulator calls into — fails this
	// run's waiters and nobody else. Deferred first, so it runs after
	// the slot release and the counters below have unwound.
	defer func() {
		if p := recover(); p != nil {
			e.count(&e.stats.panics)
			resp, err = nil, fmt.Errorf("service: %w: pipeline run panicked: %v", apierr.ErrInternal, p)
		}
	}()
	n := req.normalized()
	var sk stageKeys
	stageOK := false
	if e.stagesEnabled() {
		if k, ok, kerr := n.stageKeys(); kerr == nil && ok {
			sk, stageOK = k, true
		}
	}
	if stageOK {
		if resp := e.serveFromStore(&n, key, &sk); resp != nil {
			e.count(&e.stats.stageServed)
			return resp, nil
		}
	}
	e.count(&e.stats.inflight)
	defer func() {
		e.mu.Lock()
		e.stats.inflight--
		e.mu.Unlock()
	}()
	release, aerr := e.adm.Acquire(ctx, n.Tenant, n.Lane)
	if aerr != nil {
		switch {
		case errors.Is(aerr, apierr.ErrQueueFull):
			e.count(&e.stats.shed)
		case errors.Is(aerr, apierr.ErrCanceled) &&
			errors.Is(context.Cause(ctx), apierr.ErrShuttingDown):
			// Queued when the hard stop fired: the caller didn't give
			// up, the server went away.
			return nil, fmt.Errorf("service: %w: abandoned in queue", apierr.ErrShuttingDown)
		}
		return nil, fmt.Errorf("service: %w", aerr)
	}
	defer release()
	defer func() {
		e.mu.Lock()
		e.stats.runs++
		if err != nil {
			e.stats.errors++
		}
		e.mu.Unlock()
	}()
	// A run canceled by Shutdown's hard stop failed because the SERVER
	// is going away, not because the caller gave up; report it as such.
	defer func() {
		if err != nil && errors.Is(err, apierr.ErrCanceled) &&
			errors.Is(context.Cause(ctx), apierr.ErrShuttingDown) {
			err = fmt.Errorf("service: %w: in-flight run canceled by engine shutdown",
				apierr.ErrShuttingDown)
			resp = nil
		}
	}()
	if err := apierr.CtxErr(ctx); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}

	start := time.Now()
	// The front-end artifact shares one program + structure build per
	// module across every request and architecture; without stage
	// caching the front-end is rebuilt per request as before.
	var fa *frontendArtifact
	if stageOK {
		fa = e.frontendFor(&n, sk.frontend)
	}
	prog := n.Prog
	if prog == nil {
		assembleStart := time.Now()
		if fa != nil {
			prog, err = fa.programOf(nil)
		} else {
			prog, err = gpusim.Load(n.Module)
		}
		e.lat.Since(obs.StageAssemble, assembleStart)
		if err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
	}
	resp = &Response{Key: key, Kind: n.Kind, eng: e, shared: &respShared{}}

	if n.Kind == KindMeasure {
		simStart := time.Now()
		res, err := gpusim.Run(ctx, prog, n.Launch, n.Workload, gpusim.Config{
			GPU:         n.GPU,
			SimSMs:      n.SimSMs,
			Seed:        n.Seed,
			Parallelism: n.Parallelism,
		})
		e.lat.Since(obs.StageSimulate, simStart)
		if err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
		e.count(&e.stats.sims)
		resp.Cycles = res.Cycles
		prog.Recycle(res)
		resp.ElapsedMS = elapsedMS(start)
		if stageOK {
			ma := &measureArtifact{cycles: resp.Cycles, elapsedMS: resp.ElapsedMS}
			e.stagePut(store.StageMeasure, sk.measure, ma, func() ([]byte, error) {
				return encodePayload(payloadHeader{Cycles: ma.cycles, ElapsedMS: ma.elapsedMS}, nil)
			})
		}
		return resp, nil
	}

	// Profile stage: an advise run whose advice artifact missed may
	// still reuse a stored profile (e.g. a prior /v1/profile) and skip
	// the simulation entirely.
	var pa *profileArtifact
	if stageOK && n.Kind == KindAdvise {
		pa = e.profileArtifactGet(sk.profile)
	}
	if pa == nil {
		simStart := time.Now()
		prof, err := profiler.CollectProgram(ctx, prog, n.Launch, n.Workload, profiler.Options{
			GPU:          n.GPU,
			SamplePeriod: n.SamplePeriod,
			SimSMs:       n.SimSMs,
			Seed:         n.Seed,
			Parallelism:  n.Parallelism,
		})
		e.lat.Since(obs.StageSimulate, simStart)
		if err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
		e.count(&e.stats.sims)
		// The canonical JSON encoding is hashed directly (identical to
		// Profile.Digest) and doubles as the artifact body, so a store
		// round-trip reproduces this digest byte-for-byte.
		data, err := json.Marshal(prof)
		if err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
		sum := sha256.Sum256(data)
		// The artifact's elapsed is what a profile response replays, so a
		// warm store hit stays byte-identical to this cold run.
		pa = &profileArtifact{
			kernel: prof.Kernel, cycles: prof.Cycles, elapsedMS: elapsedMS(start),
			digest: hex.EncodeToString(sum[:]), prof: prof,
		}
		if stageOK {
			e.stagePut(store.StageProfile, sk.profile, pa, func() ([]byte, error) {
				return encodePayload(payloadHeader{Cycles: pa.cycles, ElapsedMS: pa.elapsedMS, Kernel: pa.kernel}, data)
			})
		}
	}
	resp.Cycles, resp.ProfileDigest, resp.prof = pa.cycles, pa.digest, pa
	if n.Kind == KindProfile {
		resp.ElapsedMS = pa.elapsedMS
		return resp, nil
	}

	if err := apierr.CtxErr(ctx); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	// Advice stage. serveFromStore found no advice artifact, so this run
	// computes one; blaming needs the profile as a struct.
	prof, err := pa.profile(e)
	if err != nil {
		return nil, err
	}
	blameStart := time.Now()
	var st *structure.Structure
	mod := n.Module
	if fa != nil {
		mod = fa.mod
		st, err = e.structureOf(fa)
	} else {
		e.count(&e.stats.structureBuilds)
		st, err = structure.Analyze(n.Module)
	}
	if err != nil {
		e.lat.Since(obs.StageBlame, blameStart)
		return nil, fmt.Errorf("service: %w", err)
	}
	actx, err := adv.BuildContextWithStructure(mod, st, prof, n.GPU, n.Blamer)
	e.lat.Since(obs.StageBlame, blameStart)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	adviseStart := time.Now()
	advice := adv.Advise(actx, adv.DefaultOptimizers()...)
	aa := &adviceArtifact{
		kernel: advice.Kernel, cycles: pa.cycles, digest: pa.digest,
		advice: advice, report: advice.String(), pa: pa,
	}
	e.lat.Since(obs.StageAdvise, adviseStart)
	aa.elapsedMS = elapsedMS(start)
	resp.Context, resp.ElapsedMS, resp.adv = actx, aa.elapsedMS, aa
	if stageOK {
		e.stagePut(store.StageAdvice, sk.advice, aa, func() ([]byte, error) {
			// The put and this run's own wire response share one encoding.
			doc, err := resp.tailDoc()
			if err != nil {
				return nil, err
			}
			resp.freshTail = doc[len(tailOpen):]
			return encodePayload(payloadHeader{
				Cycles: aa.cycles, ElapsedMS: aa.elapsedMS, ProfileDigest: aa.digest, Kernel: aa.kernel,
			}, doc)
		})
	}
	return resp, nil
}

// elapsedMS renders a stage duration in milliseconds with microsecond
// resolution (stable-width JSON, no sub-ns noise).
func elapsedMS(start time.Time) float64 {
	return float64(time.Since(start).Microseconds()) / 1000
}
