// Package service is the serving subsystem in front of the Figure 2
// pipeline: a bounded worker-pool job engine over a content-addressed
// per-stage artifact store. It turns the one-kernel-at-a-time advisor
// into something a long-running daemon (cmd/gpad) or a batch driver
// (gpa.Engine, cmd/gpa-bench) can push heavy traffic through.
//
// A Request names a kernel module, launch, architecture model, and the
// result-affecting options. One canonical field list (digest.go) keys
// every stage — measure, profile, advice — by the prefix of fields that
// can change its output, and the request's result key (Response.Key) is
// the key of the stage its Kind makes terminal. The engine resolves a
// request through one stage table and one driver: the terminal stage's
// memory tier (a hit returns the artifact's prebuilt response: no
// simulation, no waiting, no allocation), then a singleflight table (N
// identical concurrent requests share ONE resolution), then the disk
// tier (a restarted daemon starts warm), and finally a worker-bounded
// run that computes the stage — resolving the stages it depends on
// through the same driver, so an advise over a stored profile simulates
// nothing — and publishes what it computed: the stage it serves to both
// tiers, a stage it only consumed to disk alone. Worker slots are
// granted by a tenant-aware admission scheduler (internal/qos):
// per-tenant queues under deficit-weighted round robin, an interactive
// lane that preempts queued batch work, per-tenant token-bucket quotas
// shedding over-quota callers with ErrQuotaExceeded, and a shared queue
// bound shedding arrivals past it with ErrQueueFull. Tenant and lane are
// transport-only metadata: they decide who runs next, never what a run
// computes, and are excluded from every stage key exactly like TraceID.
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
// parallelism level, and stored artifacts are served verbatim, so a
// memory or disk hit returns byte-identical report text to a cold
// sequential run. Parallelism is therefore excluded from every key.
// Responses are shared between callers and must be treated as
// immutable.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gpa/internal/apierr"
	"gpa/internal/arch"
	"gpa/internal/blamer"
	"gpa/internal/gpusim"
	"gpa/internal/obs"
	"gpa/internal/profiler"
	"gpa/internal/qos"
	"gpa/internal/sass"
	"gpa/internal/store"

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

// Request is one unit of work for the engine. Every request arrives
// built and keyed: the module's front end (Prog, ModuleHash) is
// memoized above the engine (gpa.Kernel, gpad's kernel cache), and a
// Workload comes with its WorkloadKey. Do refuses any other request
// with an error wrapping apierr.ErrBadKernel.
type Request struct {
	Kind Kind
	// Module is the kernel module, whose structure an advice analyzes.
	Module *sass.Module
	// Prog is Module's flattened program (gpusim.Load); required. The
	// engine simulates it and never loads a module itself.
	Prog *gpusim.Program
	// ModuleHash is the SHA-256 of Module's canonical cubin encoding
	// (cubin.Pack); required. Module's content enters every key through
	// it, so the engine never encodes a module: a hash that does not
	// match Module is the caller's broken promise, as a Prog of another
	// module would be.
	ModuleHash [32]byte
	Launch     gpusim.LaunchConfig
	// GPU is the architecture model (nil = the paper's V100).
	GPU *arch.GPU
	// SamplePeriod in cycles (0 = 64; KindMeasure never samples, and the
	// measure key does not cover it).
	SamplePeriod int
	// SimSMs bounds detailed SM simulation (0 = 4).
	SimSMs int
	Seed   uint64
	// Parallelism bounds concurrent SM simulation inside this one run
	// (0 = resolved when the run is granted a worker slot to the cores
	// the other slot holders leave free, max(1, GOMAXPROCS - others),
	// and capped by SimSMs: a lone run fans out over every core, two
	// concurrent runs on two cores take one each). Set 1 for a Workload
	// that is not safe for concurrent use. Excluded from every key —
	// results are identical at every level.
	Parallelism int
	// Timeout is this request's deadline, measured from admission
	// (0 = the engine's DefaultTimeout; negative = none even when a
	// default is set). Excluded from every key — deadlines never affect
	// a completed result.
	Timeout time.Duration
	// Workload supplies branch trips and memory behaviour. Workloads
	// are opaque callbacks, so a request carrying one must name it by
	// WorkloadKey, stably (same key ⇒ same behaviour). A keyless
	// one-off workload runs through the direct API (gpa.Kernel.Advise,
	// Profile, Measure), not through a caching engine.
	Workload    gpusim.Workload
	WorkloadKey string
	// TraceID is the per-request trace identifier (accepted from the
	// client or minted by the server) that request logs and the v2
	// result schema echo. It is transport-level observability and is
	// deliberately excluded from every stage key — two requests
	// differing only in TraceID share one artifact, one flight, and
	// byte-identical responses, and drift-check output can never depend
	// on who asked. Pinned by TestTraceIDExcludedFromDigest.
	TraceID string
	// Tenant identifies the requesting client class for admission
	// scheduling, quotas, and per-tenant accounting ("" = the default
	// tenant). Like TraceID it is transport-only metadata, deliberately
	// excluded from every stage key: two tenants requesting the same
	// kernel share one artifact and one flight
	// (the hit is billed to both quota buckets but simulated once), and
	// results can never depend on who asked. Pinned by
	// TestTenantExcludedFromDigest.
	Tenant string
	// Lane selects the admission priority lane (zero value =
	// interactive; cmd/gpad routes /v1/batch and /v1/sweep to
	// qos.LaneBatch). Excluded from every key for the same reason as
	// Tenant: scheduling priority cannot affect a completed result.
	Lane qos.Lane
}

// defaultGPU is the shared default architecture model (the paper's
// V100). It is resolved once so every nil-GPU request digests and runs
// against one immutable instance instead of minting a fresh model per
// request; nothing in the pipeline mutates a Config's GPU.
var defaultGPU = arch.VoltaV100()

// normalized returns a copy with defaults resolved, so the keys and the
// execution path can never disagree about what actually ran.
func (r *Request) normalized() Request {
	n := *r
	if n.GPU == nil {
		n.GPU = defaultGPU
	}
	if n.SimSMs == 0 {
		n.SimSMs = 4
	}
	if n.SamplePeriod <= 0 {
		n.SamplePeriod = 64
	}
	return n
}

// Response is the result of one request, and the form a served stage's
// artifact takes in the store's memory tier. A shared response — every
// hit on a stage, every coalesced follower — is built one way, from the
// stage's payload bytes (Engine.publish), whether a run just encoded
// them or the disk store held them; it has Cached set and whatever Profile
// and Advice hand out of it must be treated as read-only. The response
// of the caller that led a run is that run's own: Cached unset, and the
// structs it computed.
//
// The scalar fields are always set. Profile, Advice and Report are
// accessors because a shared response holds the bytes it is encoded as,
// not the structs: they decode on first use, once per artifact, and
// fail with an error wrapping apierr.ErrInternal when a stored artifact
// does not decode to what its document declared. On the response of the
// caller that led the run they return that run's values and cannot fail.
// Each reads its own stage's artifact only: an advise response's profile
// is the profile stage's, one KindProfile request away.
type Response struct {
	// Key is the request digest: the terminal stage's key, in hex.
	Key string
	// Cached is true when the response was served without a pipeline run
	// of the caller's own (store hit or singleflight coalescing).
	Cached bool
	Kind   Kind
	// Cycles is the simulated kernel duration.
	Cycles int64
	// ElapsedMS is the wall-clock cost in milliseconds of the pipeline
	// run that produced this response. Store and singleflight hits
	// return the original run's value (the cost the store avoided), so
	// a hit stays byte-identical to the run it shares.
	ElapsedMS float64
	// ProfileDigest is the profile's stable content digest (drift
	// checking across builds and deployments).
	ProfileDigest string

	// doc is the response's wireTail document, its stage's payload.
	// prof (KindProfile) and adv (KindAdvise) are the artifacts behind
	// the accessors; eng counts their decodes.
	doc  []byte
	prof *profileArtifact
	adv  *adviceArtifact
	eng  *Engine
}

// Profile returns the sampled profile (KindProfile; nil otherwise).
func (r *Response) Profile() (*profiler.Profile, error) {
	if r.prof == nil {
		return nil, nil
	}
	return r.prof.profile(r.eng)
}

// Advice returns the ranked advice (KindAdvise; nil otherwise).
func (r *Response) Advice() (*adv.Advice, error) {
	if r.adv == nil {
		return nil, nil
	}
	advice, _, err := r.adv.decoded(r.eng, r.doc)
	return advice, err
}

// Report returns the rendered Figure 8-style report text (KindAdvise;
// empty otherwise), byte-identical between a memory hit, a disk hit and
// the cold run.
func (r *Response) Report() (string, error) {
	if r.adv == nil {
		return "", nil
	}
	_, report, err := r.adv.decoded(r.eng, r.doc)
	return report, err
}

// Tail returns the response's wire tail: the gpa-result/3 encoding from
// "cycles" through the closing brace and newline, the part shared by
// every request this response serves (the caller writes its own head in
// front; see gpa.Job.EncodeResult). It is the stage payload's document,
// read-only, less its opening brace: nothing is encoded or decoded. A
// Response not built by an engine has none.
func (r *Response) Tail() []byte {
	if len(r.doc) < len(tailOpen) {
		return nil
	}
	return r.doc[len(tailOpen):]
}

// Stats is a point-in-time snapshot of the engine's counters.
type Stats struct {
	// Hits counts requests answered from the memory tier of their
	// terminal stage, before any flight (no simulation, no waiting).
	Hits int64 `json:"hits"`
	// Misses counts requests that found neither their artifact in memory
	// nor an in-flight duplicate and led a new flight.
	Misses int64 `json:"misses"`
	// Coalesced counts requests that joined an identical in-flight
	// request (singleflight followers: N concurrent duplicates cost
	// Misses=1, Coalesced=N-1, Runs=1).
	Coalesced int64 `json:"coalesced"`
	// Runs counts actual pipeline executions. A run may still reuse
	// the artifacts of the stages it depends on (e.g. advise over a
	// stored profile); Sims counts the simulations that actually
	// happened.
	Runs int64 `json:"runs"`
	// Sims counts actual simulator invocations (gpusim runs and
	// profile collections). Runs-with-stage-reuse keep Sims flat: a
	// freshly restarted engine serving from a warm on-disk store
	// reports Runs==0 and Sims==0.
	Sims int64 `json:"sims"`
	// StageServed counts flight leaders answered from the disk tier
	// without a pipeline run (no worker slot, no Runs increment).
	StageServed int64 `json:"stageServed"`
	// StructureBuilds counts structure analyses of a module: one per
	// advice computation, so a sweep over N architecture models performs
	// N. Nothing keeps an analysis once its advice is computed.
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
	// QosDropped counts admitted waiters that left the queue ungranted:
	// the caller canceled while queued, or a drain abandoned queued
	// batch work.
	QosDropped int64 `json:"qosDropped"`
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
	// Workers is the engine's worker-pool bound.
	Workers int `json:"workers"`
	// PoolGets / PoolHits sum the work records (gpusim.Work) of this
	// engine's simulations: how many state arenas they acquired — one
	// each, so PoolGets equals Sims — and how many of those came out of
	// a program's pool (Work.ArenaReused). A warm engine should show
	// PoolHits tracking PoolGets.
	PoolGets int64 `json:"poolGets"`
	PoolHits int64 `json:"poolHits"`
	// FFPeriodsDetected / FFCyclesSkipped / FFFallbacks sum the same
	// records' steady-state memoization counters: periods locked and
	// fast-forwarded, simulated cycles skipped analytically instead of
	// stepped, and detected periods abandoned without skipping. Periodic
	// workloads show FFCyclesSkipped dwarfing stepped cycles; aperiodic
	// ones show all three near zero.
	FFPeriodsDetected int64 `json:"ffPeriodsDetected"`
	FFCyclesSkipped   int64 `json:"ffCyclesSkipped"`
	FFFallbacks       int64 `json:"ffFallbacks"`
	// StageHits / StageMisses / StageEvictions are the memory tier's
	// counters (per-stage LRU lookups): every request's probe of its
	// terminal stage — so StageHits includes Hits — plus the probes a
	// run makes for the stages it depends on.
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
	// (a profile, or an advice with its report). Serving decodes nothing,
	// whatever the kind and the tier; the counter moves when a run blames
	// a profile another request left behind, or a caller asks a shared
	// response for Profile, Advice or Report.
	StageDecodes int64 `json:"stageDecodes"`
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
	// CacheEntries bounds each stage's LRU in the store's memory tier
	// (0 = 512 per stage; negative = no memory tier at all: every repeat
	// goes to the disk store or re-runs, and identical in-flight
	// requests still coalesce).
	CacheEntries int
	// MaxQueue bounds how many pipeline runs may wait for a worker slot
	// beyond the Workers already running; a run arriving past the bound
	// is shed immediately with ErrQueueFull (0 = unbounded, the
	// pre-load-shedding behaviour; negative = no queue at all).
	MaxQueue int
	// DefaultTimeout is the per-request deadline applied to every
	// request whose own Timeout is zero (0 = none).
	DefaultTimeout time.Duration
	// Store is the persistent artifact backend (OpenDisk): stage outputs
	// survive restarts and are shared across engines pointed at one
	// directory. nil = in-memory stages only.
	Store *store.Disk
	// QoS is the tenant-aware admission configuration (nil = one
	// default tenant, no quotas, no interactive reserve — the flat
	// pre-tenancy behaviour plus FIFO fairness). It must be
	// Validate-clean; qos.ParseConfig guarantees that, and New panics on
	// an invalid config (a programmer error, not a runtime condition).
	QoS *qos.Config
}

// Engine is the concurrent advice engine: a worker pool over a
// content-addressed per-stage artifact store, with singleflight
// deduplication. Safe for concurrent use.
type Engine struct {
	// adm is the tenant-aware admission scheduler (internal/qos): it
	// owns the worker-slot accounting, the per-tenant queues and
	// quotas, and the lane priority.
	adm            *qos.Scheduler
	defaultTimeout time.Duration

	// baseCtx parents every flight's run context, so Shutdown's hard
	// stop can cancel all in-flight simulations at once (with
	// ErrShuttingDown as the cause, so their failures surface as
	// shutdown, not as a client-side cancel).
	baseCtx    context.Context
	baseCancel context.CancelCauseFunc
	// drainCh is closed (once) when Shutdown begins: new requests are
	// rejected and queued (not yet running) runs are abandoned.
	drainCh   chan struct{}
	drainOnce sync.Once

	// stages/disk are the artifact store's two tiers (see internal/store
	// and the driver below). stages holds, per stage, the prebuilt Cached
	// response of every artifact a request was served, so a warm hit
	// returns the same pointer without copying; it is nil when
	// CacheEntries is negative. disk is nil without a -store-dir.
	stages *store.Memory
	disk   *store.Disk

	// mu guards the flight table; the memory tier has its own lock.
	mu     sync.Mutex
	flight map[store.Key]*flightCall
	// landed counts flights that finished. A flight publishes its
	// artifact before it lands and unlinks itself after, so a request
	// that finds its key neither in memory nor in flight, and sees
	// landed unchanged across both looks, knows it did not just miss
	// the one between them.
	landed atomic.Uint64
	// afterMiss, when a test sets it, runs between those two looks.
	afterMiss func()

	// lat records per-stage pipeline latencies (simulate, blame, advise;
	// the serving layer records assemble) for the /metrics histograms.
	// Stages record only when they actually execute, so the counts
	// correlate with runs/sims, not request volume.
	lat *obs.StageLatency

	// n holds the engine's own counters; Stats reads them.
	n struct {
		hits, misses, coalesced, runs, errors, canceled, shed, inflight atomic.Int64
		sims, stageServed, structureBuilds, stageDecodes, panics        atomic.Int64
		// The summed gpusim.Work records of the engine's simulations.
		poolHits, ffPeriods, ffCycles, ffFallbacks atomic.Int64
	}
}

// flightCall tracks one in-flight resolution joined by duplicates.
// waiters is guarded by Engine.mu; when it drops to zero every caller
// has detached and cancel reclaims the run. cancel is set by the leader
// before it waits, and only when the disk tier missed and a run began.
type flightCall struct {
	done    chan struct{}
	cancel  context.CancelFunc
	waiters int
	// view is the shared Cached response every follower gets; lead is the
	// leader's own (nil when the store answered and view serves it too).
	view, lead *Response
	err        error
}

// New builds an engine.
func New(opts Options) *Engine {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
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
	return &Engine{
		adm:            qos.NewScheduler(workers, opts.MaxQueue, qosCfg),
		defaultTimeout: opts.DefaultTimeout,
		baseCtx:        baseCtx,
		baseCancel:     baseCancel,
		drainCh:        make(chan struct{}),
		flight:         make(map[store.Key]*flightCall),
		stages:         store.NewMemory(opts.CacheEntries), // nil for CacheEntries < 0
		disk:           opts.Store,
		lat:            obs.NewStageLatency(),
	}
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

// Do resolves one request: the memory tier of its terminal stage, then
// singleflight, then the disk tier, then a worker-bounded pipeline run.
// A request that breaks Request's contract fails with ErrBadKernel
// before any of them, and before its tenant's quota is charged.
// A canceled ctx detaches this caller wherever it is waiting — queued,
// running, or coalesced — and returns an error wrapping ErrCanceled;
// the shared run itself is canceled only when its last waiter detaches.
// Errors are returned to every waiter of the failed flight and are
// never cached.
func (e *Engine) Do(ctx context.Context, req *Request) (*Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := apierr.CtxErr(ctx); err != nil {
		e.n.canceled.Add(1)
		return nil, fmt.Errorf("service: %w", err)
	}
	select {
	case <-e.drainCh:
		return nil, fmt.Errorf("service: %w", apierr.ErrShuttingDown)
	default:
	}
	// A request the engine refuses (unbuilt or unkeyed) is refused
	// before it is billed.
	var buf keyBuf
	km, err := req.keyMaterial(buf[:0])
	if err != nil {
		return nil, err
	}
	// Quota is charged before the store and singleflight tiers: every
	// request costs its tenant one token — memory hits and coalesced
	// followers included, so a shared run is billed to every bucket
	// that asked for it — and over-quota work is shed before costing
	// anything.
	if err := e.adm.Charge(req.Tenant); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	ctx, cancel := e.withDeadline(ctx, req)
	defer cancel()

	// The warm path: one hash, one lookup, and the artifact's prebuilt
	// response — no allocation at all.
	key := km.key(km.terminal)
	var c *flightCall
	var joined bool
	for c == nil {
		landed := e.landed.Load()
		if v, ok := e.stages.Get(stageNames[km.terminal], key); ok {
			e.n.hits.Add(1)
			e.adm.Served(req.Tenant)
			return v.(*Response), nil
		}
		if e.afterMiss != nil {
			e.afterMiss()
		}
		e.mu.Lock()
		if c, joined = e.flight[key]; joined {
			c.waiters++
			e.n.coalesced.Add(1)
		} else if e.landed.Load() == landed {
			c = &flightCall{done: make(chan struct{}), waiters: 1}
			e.flight[key] = c
			e.n.misses.Add(1)
		} // else a flight landed since the probe: it may have been ours
		e.mu.Unlock()
	}
	if !joined {
		e.lead(req, &km, key, c)
	}

	select {
	case <-c.done:
		if c.err != nil {
			return nil, c.err
		}
		e.adm.Served(req.Tenant)
		if joined || c.lead == nil {
			return c.view, nil
		}
		return c.lead, nil
	case <-ctx.Done():
		e.detach(key, c)
		return nil, fmt.Errorf("service: %w", apierr.Canceled(ctx.Err()))
	}
}

// lead resolves the flight c that req's caller has just registered
// under key, outside e.mu. The disk tier is probed here, on the
// caller's own goroutine: a hit lands the flight with no run context
// and no goroutine. On a miss the flight gets its run, which is owned
// by the flight, not by the caller: it keeps going if the caller
// detaches while other waiters remain, and dies (via c.cancel) when the
// last waiter detaches. The run gets copies of the request and its
// keys, so the caller's own (often on its stack) never escape on the
// hit paths.
func (e *Engine) lead(req *Request, km *keyMaterial, key store.Key, c *flightCall) {
	sk := km.keys()
	if view, err := e.probe(stageOf(req.Kind), &sk, req.Launch.Entry); view != nil || err != nil {
		e.land(key, c, view, nil, err)
		return
	}
	runCtx, cancelRun := context.WithCancel(e.baseCtx)
	c.cancel = cancelRun
	reqCopy, skCopy := *req, sk
	go func() {
		view, lead, err := e.execute(runCtx, &reqCopy, &skCopy)
		cancelRun()
		e.land(key, c, view, lead, err)
	}()
}

// probe is a flight leader's disk-tier lookup: a hit costs no admission
// slot and no run. It is inside the flight boundary, as a run is.
func (e *Engine) probe(s stageID, sk *stageKeys, kernel string) (view *Response, err error) {
	defer e.contain(&err)
	if view = e.lookup(s, sk, kernel, tierDisk, true); view != nil {
		e.n.stageServed.Add(1)
	}
	return view, nil
}

// land finishes flight c with its outcome and wakes its waiters.
func (e *Engine) land(key store.Key, c *flightCall, view, lead *Response, err error) {
	e.landed.Add(1)
	e.mu.Lock()
	// detach may already have removed an abandoned flight and a fresh
	// caller may have installed a new one under the same key; only
	// remove our own entry.
	if e.flight[key] == c {
		delete(e.flight, key)
	}
	c.view, c.lead, c.err = view, lead, err
	e.mu.Unlock()
	close(c.done)
}

// detach removes one waiter from a flight; the last waiter out cancels
// the shared run (nobody is left to consume its result) and unlinks
// the flight immediately, so a fresh caller arriving while the
// canceled run unwinds starts a new run instead of inheriting the
// abandoned flight's cancellation error. A flight the disk tier
// answered has no run to cancel.
func (e *Engine) detach(key store.Key, c *flightCall) {
	e.n.canceled.Add(1)
	e.mu.Lock()
	c.waiters--
	last := c.waiters == 0
	if last && e.flight[key] == c {
		delete(e.flight, key)
	}
	e.mu.Unlock()
	if last && c.cancel != nil {
		c.cancel()
	}
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
	e.drainOnce.Do(func() { close(e.drainCh) })
	e.adm.Drain()

	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	hardStopped := false
	for e.n.inflight.Load() != 0 {
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
	if hardStopped {
		return fmt.Errorf("service: shutdown: %w", apierr.Canceled(ctx.Err()))
	}
	return nil
}

// StageLatency exposes the engine's per-stage latency recorder so the
// serving layer (cmd/gpad) can render it at /metrics and fold its own
// assemble-time observations (kernel construction happens above the
// engine) into the same histograms.
func (e *Engine) StageLatency() *obs.StageLatency { return e.lat }

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	stageStats := e.stages.Stats() // nil-safe: zero Stats without a memory tier
	var diskStats store.Stats
	if e.disk != nil {
		diskStats = e.disk.Stats()
	}
	adm := e.adm.Snapshot()
	// One load of sims feeds Sims and PoolGets, and poolHits is loaded
	// first: noteSim counts a run's hit after its sim, so the snapshot
	// keeps PoolHits <= PoolGets == Sims under load.
	poolHits := e.n.poolHits.Load()
	sims := e.n.sims.Load()
	return Stats{
		Hits:          e.n.hits.Load(),
		Misses:        e.n.misses.Load(),
		Coalesced:     e.n.coalesced.Load(),
		Runs:          e.n.runs.Load(),
		Sims:          sims,
		StageServed:   e.n.stageServed.Load(),
		Errors:        e.n.errors.Load(),
		Panics:        e.n.panics.Load(),
		Canceled:      e.n.canceled.Load(),
		Shed:          e.n.shed.Load(),
		QuotaShed:     adm.QuotaShed,
		QosDropped:    adm.Dropped,
		Inflight:      e.n.inflight.Load(),
		Queued:        adm.Queued,
		QueueCapacity: e.adm.QueueCapacity(),

		InteractiveQueued: adm.InteractiveQueued,
		BatchQueued:       adm.BatchQueued,
		Tenants:           adm.Tenants,

		Workers:  e.adm.Workers(),
		PoolGets: sims,
		PoolHits: poolHits,

		FFPeriodsDetected: e.n.ffPeriods.Load(),
		FFCyclesSkipped:   e.n.ffCycles.Load(),
		FFFallbacks:       e.n.ffFallbacks.Load(),

		StructureBuilds: e.n.structureBuilds.Load(),
		StageHits:       stageStats.Hits,
		StageMisses:     stageStats.Misses,
		StageEvictions:  stageStats.Evictions,
		StoreHits:       diskStats.Hits,
		StoreMisses:     diskStats.Misses,
		StorePuts:       diskStats.Puts,
		StoreCorrupt:    diskStats.Corrupt,
		StoreErrors:     diskStats.Errors,
		StageDecodes:    e.n.stageDecodes.Load(),
	}
}

// stage is one row of the pipeline's stage table: what a served stage
// needs, and how its artifact is computed by a run. The document a run
// encoded is its stage's payload, and a payload is the only form a
// shared artifact has — on disk, and in the memory tier as the Response
// decoded from it (decodeStage, in Engine.publish).
type stage struct {
	// needs is the stage whose response compute takes (noStage: none,
	// the stage reads the request alone).
	needs stageID
	// compute runs the stage over dep, the response of the stage it
	// needs, and returns the leader's response: Cached unset, the structs
	// beside the document they encode to.
	compute func(e *Engine, ctx context.Context, r *run, dep *Response) (*Response, error)
}

// stages is the table.
var stages = [numStages]stage{
	stMeasure: {noStage, (*Engine).computeMeasure},
	stProfile: {noStage, (*Engine).computeProfile},
	stAdvice:  {stProfile, (*Engine).computeAdvice},
}

// stageOf returns the stage a request of kind k terminates in. A kind
// out of range runs the whole pipeline, as the empty name parses.
func stageOf(k Kind) stageID {
	if k < KindMeasure || k > KindAdvise {
		k = KindAdvise
	}
	return stMeasure + stageID(k)
}

// tier says where a lookup starts: a caller that has already seen a
// tier miss says so, and one request probes each key once.
type tier int

const (
	tierMemory tier = iota
	tierDisk
	tierCompute
)

// run is the working state of one pipeline execution.
type run struct {
	n     Request // normalized
	sk    *stageKeys
	start time.Time
}

// lookup is the read half of the driver: memory, then disk. kernel is
// the entry the request launches. A disk hit is published as the
// response it serves, into the memory tier only if keep (see resolve). A
// blob whose payload decodeStage rejects is reported corrupt and
// removed: the frame's checksum proves the bytes are the ones written,
// and a frame that holds no document of its stage — planted by hand, or
// written by a broken encoder — is not served.
func (e *Engine) lookup(s stageID, sk *stageKeys, kernel string, from tier, keep bool) *Response {
	name, key := stageNames[s], sk[s]
	if from <= tierMemory {
		if v, ok := e.stages.Get(name, key); ok {
			return v.(*Response)
		}
	}
	if from > tierDisk || e.disk == nil {
		return nil
	}
	payload, ok := e.disk.Get(name, key)
	if !ok {
		return nil
	}
	view, err := e.publish(s, key, kernel, payload, keep)
	if err != nil {
		e.disk.NoteCorrupt(name, key)
		return nil
	}
	return view
}

// decodePayload is decodeStage; a variable so a test can make it panic.
var decodePayload = decodeStage

// publish is the one constructor of a shared response: it checks a
// stage payload (decodeStage) — read from disk, or the document of the
// run that just computed the stage — and builds the response the
// payload serves. If keep, the response goes into the memory tier and
// publish returns the one under the key (an earlier one on a race);
// otherwise it serves its caller alone.
func (e *Engine) publish(s stageID, key store.Key, kernel string, payload []byte, keep bool) (*Response, error) {
	view, err := decodePayload(s, payload, kernel)
	if err != nil {
		return nil, err
	}
	var hexKey [2 * len(key)]byte
	view.Key, view.Cached, view.eng = string(hex.AppendEncode(hexKey[:0], key[:])), true, e
	if !keep {
		return view, nil
	}
	return e.stages.Add(stageNames[s], key, view).(*Response), nil
}

// resolve is the one stage driver: memory → disk → compute, over the
// resolved stage it needs → publish → put. It returns the stage's shared
// response and, when this call computed the stage, the leader's own
// beside it. A stage that depends on another takes the run's own lead
// when this run computed it — it holds the struct — and the shared
// response otherwise, decoding its body once. A payload the decoder
// rejects fails the run, so nothing is ever served from memory that
// would not be served from disk.
//
// The memory tier keeps what is served (keep): the stage the request
// terminates in. A stage the run only consumes — the profile an advice
// blames — is checked and put to disk, and a disk hit on it is decoded
// for the run alone; memory holds it only if it already did.
func (e *Engine) resolve(ctx context.Context, r *run, s stageID, from tier) (view, lead *Response, err error) {
	keep := s == stageOf(r.n.Kind)
	if view = e.lookup(s, r.sk, r.n.Launch.Entry, from, keep); view != nil {
		return view, nil, nil
	}
	st := &stages[s]
	var dep *Response
	if st.needs != noStage {
		depView, depLead, err := e.resolve(ctx, r, st.needs, tierMemory)
		if err != nil {
			return nil, nil, err
		}
		if dep = depLead; dep == nil {
			dep = depView
		}
		if err := apierr.CtxErr(ctx); err != nil {
			return nil, nil, fmt.Errorf("service: %w", err)
		}
	}
	if lead, err = st.compute(e, ctx, r, dep); err != nil {
		return nil, nil, err
	}
	lead.eng = e
	if view, err = e.publish(s, r.sk[s], r.n.Launch.Entry, lead.doc, keep); err != nil {
		return nil, nil, fmt.Errorf("service: %w: the %s stage computed an artifact it cannot serve: %v", apierr.ErrInternal, stageNames[s], err)
	}
	lead.Key = view.Key
	if e.disk != nil {
		e.disk.Put(stageNames[s], r.sk[s], lead.doc)
	}
	return view, lead, nil
}

// contain is the flight boundary, deferred by whatever a flight runs: a
// panic below it — in a stage, in the stage decoder, or in the
// caller-supplied Workload the simulator calls into — fails this
// flight's waiters with *err and nobody else.
func (e *Engine) contain(err *error) {
	if p := recover(); p != nil {
		e.n.panics.Add(1)
		*err = fmt.Errorf("service: %w: pipeline run panicked: %v", apierr.ErrInternal, p)
	}
}

// execute runs one request that no tier could answer: the admission
// queue, then a worker slot (abandoned early if ctx dies or the engine
// drains), then the driver under the run context.
func (e *Engine) execute(ctx context.Context, req *Request, sk *stageKeys) (view, lead *Response, err error) {
	// Deferred first, so it runs after the slot release and the counters
	// below have unwound.
	defer e.contain(&err)
	e.n.inflight.Add(1)
	defer e.n.inflight.Add(-1)
	release, aerr := e.adm.Acquire(ctx, req.Tenant, req.Lane)
	if aerr != nil {
		switch {
		case errors.Is(aerr, apierr.ErrQueueFull):
			e.n.shed.Add(1)
		case errors.Is(aerr, apierr.ErrCanceled) &&
			errors.Is(context.Cause(ctx), apierr.ErrShuttingDown):
			// Queued when the hard stop fired: the caller didn't give
			// up, the server went away.
			return nil, nil, fmt.Errorf("service: %w: abandoned in queue", apierr.ErrShuttingDown)
		}
		return nil, nil, fmt.Errorf("service: %w", aerr)
	}
	defer release()
	defer func() {
		e.n.runs.Add(1)
		if err == nil {
			return
		}
		e.n.errors.Add(1)
		// A run canceled by Shutdown's hard stop failed because the SERVER
		// is going away, not because the caller gave up; report it as such.
		if errors.Is(err, apierr.ErrCanceled) && errors.Is(context.Cause(ctx), apierr.ErrShuttingDown) {
			err = fmt.Errorf("service: %w: in-flight run canceled by engine shutdown", apierr.ErrShuttingDown)
		}
	}()
	if err := apierr.CtxErr(ctx); err != nil {
		return nil, nil, fmt.Errorf("service: %w", err)
	}
	r := &run{n: req.normalized(), sk: sk, start: time.Now()}
	r.n.Parallelism = fanOut(r.n.Parallelism, e.adm.Running()-1)
	return e.resolve(ctx, r, stageOf(req.Kind), tierCompute)
}

// fanOut resolves a run's Parallelism when it is granted a worker
// slot: an explicit level stands, and 0 takes the cores the other
// runs holding a slot leave free — every core for a lone run, one when
// the others fill the machine — so concurrent runs do not oversubscribe
// the cores between them. A run keeps its level to the end: it does
// not grow when another finishes. Results are identical at every level.
func fanOut(requested, others int) int {
	if requested > 0 {
		return requested
	}
	return max(1, runtime.GOMAXPROCS(0)-others)
}

func (e *Engine) computeMeasure(ctx context.Context, r *run, _ *Response) (*Response, error) {
	prog := r.n.Prog
	simStart := time.Now()
	res, err := gpusim.Run(ctx, prog, r.n.Launch, r.n.Workload, gpusim.Config{
		GPU:         r.n.GPU,
		SimSMs:      r.n.SimSMs,
		Seed:        r.n.Seed,
		Parallelism: r.n.Parallelism,
	})
	e.lat.Since(obs.StageSimulate, simStart)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	e.noteSim(res.Work)
	t := wireTail{Cycles: res.Cycles}
	prog.Recycle(res)
	t.ElapsedMS = elapsedMS(r.start)
	return t.response(KindMeasure)
}

func (e *Engine) computeProfile(ctx context.Context, r *run, _ *Response) (*Response, error) {
	simStart := time.Now()
	prof, err := profiler.CollectProgram(ctx, r.n.Prog, r.n.Launch, r.n.Workload, profiler.Options{
		GPU:          r.n.GPU,
		SamplePeriod: r.n.SamplePeriod,
		SimSMs:       r.n.SimSMs,
		Seed:         r.n.Seed,
		Parallelism:  r.n.Parallelism,
	})
	e.lat.Since(obs.StageSimulate, simStart)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	e.noteSim(prof.Work)
	// The canonical JSON encoding is hashed directly (identical to
	// Profile.Digest) and is the payload body.
	body, err := json.Marshal(prof)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	sum := sha256.Sum256(body)
	// ElapsedMS is what a profile response replays, so a warm hit stays
	// byte-identical to this cold run.
	t := wireTail{Cycles: prof.Cycles, ElapsedMS: elapsedMS(r.start), ProfileDigest: hex.EncodeToString(sum[:]), Profile: body}
	resp, err := t.response(KindProfile)
	if err != nil {
		return nil, err
	}
	// The artifact's body is the document's copy, which ends it, as a
	// shared artifact's is: the marshaled one is garbage from here on.
	end := len(resp.doc) - len(tailClose)
	resp.prof = &profileArtifact{kernel: prof.Kernel, cycles: prof.Cycles, body: resp.doc[end-len(body) : end], prof: prof}
	return resp, nil
}

// noteSim adds one simulation's work record to the engine's counters.
func (e *Engine) noteSim(w gpusim.Work) {
	e.n.sims.Add(1)
	if w.ArenaReused {
		e.n.poolHits.Add(1)
	}
	e.n.ffPeriods.Add(w.PeriodsDetected)
	e.n.ffCycles.Add(w.CyclesFastForwarded)
	e.n.ffFallbacks.Add(w.FastForwardFallbacks)
}

// computeAdvice blames and advises over pv, the profile stage's
// response: this run's own, or a shared one (e.g. a prior /v1/profile),
// which has skipped the simulation entirely and is decoded here,
// because blaming needs the profile as a struct.
func (e *Engine) computeAdvice(ctx context.Context, r *run, pv *Response) (*Response, error) {
	prof, err := pv.prof.profile(e)
	if err != nil {
		return nil, err
	}
	// BuildContext analyzes the module's structure: once per advice, as
	// nothing keeps an analysis.
	blameStart := time.Now()
	e.n.structureBuilds.Add(1)
	actx, err := adv.BuildContext(r.n.Module, prof, r.n.GPU, blamer.Options{})
	e.lat.Since(obs.StageBlame, blameStart)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	adviseStart := time.Now()
	advice := adv.Advise(actx, adv.DefaultOptimizers()...)
	report := advice.String()
	e.lat.Since(obs.StageAdvise, adviseStart)
	t := wireTail{
		Cycles: pv.Cycles, ElapsedMS: elapsedMS(r.start), ProfileDigest: pv.ProfileDigest,
		Advice: advice.Entries, Report: report,
	}
	resp, err := t.response(KindAdvise)
	if err == nil {
		resp.adv = &adviceArtifact{kernel: advice.Kernel, advice: advice, report: report}
	}
	return resp, err
}

// response returns the leader's response of kind k that t describes:
// its document is t's encoding, the response's wire tail and its stage
// payload's body — one encoding, whoever is served it.
func (t *wireTail) response(k Kind) (*Response, error) {
	doc, err := t.encode()
	if err != nil {
		return nil, err
	}
	return &Response{Kind: k, Cycles: t.Cycles, ElapsedMS: t.ElapsedMS, ProfileDigest: t.ProfileDigest, doc: doc}, nil
}

// elapsedMS renders a stage duration in milliseconds with microsecond
// resolution (stable-width JSON, no sub-ns noise).
func elapsedMS(start time.Time) float64 {
	return float64(time.Since(start).Microseconds()) / 1000
}
