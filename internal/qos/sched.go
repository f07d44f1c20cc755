package qos

import (
	"context"
	"fmt"
	"sync"
	"time"

	"gpa/internal/apierr"
)

// waiter is one queued admission request. ready is closed exactly once
// — either as a grant (granted=true, the waiter now owns a worker
// slot) or as a refusal (err set, nothing held). canceled marks a
// waiter whose caller gave up while queued; the rotor discards it
// cost-free when it reaches the queue head.
type waiter struct {
	ready    chan struct{}
	err      error
	granted  bool
	canceled bool
	t        *tenantState
	lane     Lane
}

// tenantState is one tenant's live admission state.
type tenantState struct {
	name    string
	weight  int
	bucket  *bucket // nil = no quota
	deficit [numLanes]int
	queues  [numLanes][]*waiter
	inRing  [numLanes]bool
	queued  int64 // live queued waiters, both lanes

	served, shed, quotaShed, dropped int64
}

// rotor is one lane's deficit-weighted round-robin state: the ring of
// tenants with live queued work in this lane and the rotor position.
// Each time the rotor arrives at a tenant its deficit grows by its
// weight; each grant costs one unit; the rotor moves on when the
// deficit is spent or the queue drains (deficit is zeroed then, so an
// idle tenant banks nothing).
type rotor struct {
	lane    Lane
	ring    []*tenantState
	idx     int
	arrived bool // deficit already credited at the current rotor stop
}

func (r *rotor) add(t *tenantState) {
	if !t.inRing[r.lane] {
		t.inRing[r.lane] = true
		r.ring = append(r.ring, t)
	}
}

func (r *rotor) removeAt(i int) {
	r.ring[i].inRing[r.lane] = false
	r.ring = append(r.ring[:i], r.ring[i+1:]...)
	if r.idx > i {
		r.idx--
	}
	r.arrived = false
}

// pick pops the next waiter this lane should grant, or nil when the
// lane has no live queued work.
func (r *rotor) pick() *waiter {
	for len(r.ring) > 0 {
		if r.idx >= len(r.ring) {
			r.idx = 0
			r.arrived = false
		}
		t := r.ring[r.idx]
		q := &t.queues[r.lane]
		for len(*q) > 0 && (*q)[0].canceled {
			(*q)[0] = nil
			*q = (*q)[1:]
		}
		if len(*q) == 0 {
			t.deficit[r.lane] = 0
			r.removeAt(r.idx)
			continue
		}
		if !r.arrived {
			t.deficit[r.lane] += t.weight
			r.arrived = true
		}
		if t.deficit[r.lane] < 1 {
			r.idx++
			r.arrived = false
			continue
		}
		t.deficit[r.lane]--
		w := (*q)[0]
		(*q)[0] = nil
		*q = (*q)[1:]
		if len(*q) == 0 {
			t.deficit[r.lane] = 0
			r.removeAt(r.idx)
		}
		return w
	}
	return nil
}

// TenantStats is one tenant's accounting snapshot, rendered into
// /statsz (and the per-tenant /metrics series) by cmd/gpad.
type TenantStats struct {
	// Weight is the tenant's configured DWRR share.
	Weight int `json:"weight"`
	// Served counts successfully completed requests (cache hits,
	// coalesced followers, and executed runs alike — whoever asked).
	Served int64 `json:"served"`
	// Shed counts this tenant's queue-full rejections.
	Shed int64 `json:"shed"`
	// QuotaShed counts requests rejected over quota (HTTP 429).
	QuotaShed int64 `json:"quotaShed"`
	// Dropped counts waiters that left the queue ungranted (caller
	// canceled, or batch work abandoned by a drain).
	Dropped int64 `json:"dropped"`
	// Queued is the tenant's current live queue depth (both lanes).
	Queued int64 `json:"queued"`
}

// Snapshot is a point-in-time view of the scheduler for Stats.
type Snapshot struct {
	Queued            int64
	InteractiveQueued int64
	BatchQueued       int64
	Dropped           int64
	QuotaShed         int64
	Tenants           map[string]TenantStats
}

// Scheduler is the tenant-aware admission gate: it owns the worker
// accounting that used to live in the engine's flat semaphore and
// decides, slot by slot, which queued request runs next. Safe for
// concurrent use.
type Scheduler struct {
	cfg      Config // defaults resolved
	workers  int
	batchCap int // worker slots batch may occupy (workers - reserve)
	maxQueue int // <0 no queue, 0 unbounded, >0 bound on live waiters

	now func() time.Time // injectable for deterministic tests

	mu           sync.Mutex
	running      int
	runningBatch int
	queued       int64
	queuedLane   [numLanes]int64
	rotors       [numLanes]rotor
	tenants      map[string]*tenantState
	draining     bool

	dropped, quotaShed int64
}

// NewScheduler builds a scheduler over workers slots with the engine's
// MaxQueue semantics (0 = unbounded queue, negative = no queue at
// all). cfg must already be Validate-clean; its zero value is a valid
// single-class configuration (one default tenant, no quotas, no
// reserve) that reproduces the old flat semaphore behaviour plus FIFO
// fairness.
func NewScheduler(workers, maxQueue int, cfg Config) *Scheduler {
	cfg = cfg.withDefaults()
	reserve := cfg.InteractiveReserve
	if reserve >= workers {
		reserve = workers - 1 // batch must keep at least one slot
	}
	s := &Scheduler{
		cfg:      cfg,
		workers:  workers,
		batchCap: workers - reserve,
		maxQueue: maxQueue,
		now:      time.Now,
		tenants:  make(map[string]*tenantState),
	}
	for l := Lane(0); l < numLanes; l++ {
		s.rotors[l].lane = l
	}
	// Pre-create the default tenant so the warm serving path (Charge +
	// Served on every request) allocates nothing in steady state.
	s.tenantFor(DefaultTenantName)
	return s
}

// Workers is the worker-slot bound.
func (s *Scheduler) Workers() int { return s.workers }

// Running is how many worker slots are held now. A run that has just
// been granted a slot counts itself in it; the engine sizes the run's
// default fan-out by the others.
func (s *Scheduler) Running() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.running
}

// QueueCapacity is the admission bound beyond the worker pool
// (0 = unbounded, matching the old Stats semantics).
func (s *Scheduler) QueueCapacity() int64 {
	if s.maxQueue > 0 {
		return int64(s.maxQueue)
	}
	return 0
}

// tenantFor resolves (creating on first sight) a tenant's state; the
// caller must hold mu except during construction. Unknown IDs past the
// MaxTenants bound collapse into the shared overflow class so a client
// minting fresh IDs cannot grow scheduler state or metric label
// cardinality without bound.
func (s *Scheduler) tenantFor(name string) *tenantState {
	if name == "" {
		name = DefaultTenantName
	}
	if t, ok := s.tenants[name]; ok {
		return t
	}
	tc, explicit := s.cfg.Tenants[name]
	if !explicit {
		tc = s.cfg.DefaultTenant
		if len(s.tenants) >= s.cfg.MaxTenants {
			name = OverflowTenantName
			if t, ok := s.tenants[name]; ok {
				return t
			}
		}
	}
	t := &tenantState{name: name, weight: tc.Weight}
	if tc.RatePerSec > 0 {
		t.bucket = newBucket(tc.RatePerSec, tc.Burst, s.now())
	}
	s.tenants[name] = t
	return t
}

// Charge bills one request to the tenant's token bucket, returning a
// *apierr.QuotaError when the bucket is empty. The engine calls it at
// Do entry — before the cache and singleflight tiers — so quota
// accounting charges cache hits and coalesced followers to whoever
// requested them, and over-quota work is shed before costing anything.
func (s *Scheduler) Charge(tenant string) error {
	s.mu.Lock()
	t := s.tenantFor(tenant)
	if t.bucket == nil {
		s.mu.Unlock()
		return nil
	}
	ok, retry := t.bucket.take(s.now())
	if ok {
		s.mu.Unlock()
		return nil
	}
	t.quotaShed++
	s.quotaShed++
	name := t.name
	s.mu.Unlock()
	return &apierr.QuotaError{Tenant: name, RetryAfter: retry}
}

// Served records one successfully completed request for the tenant.
func (s *Scheduler) Served(tenant string) {
	s.mu.Lock()
	s.tenantFor(tenant).served++
	s.mu.Unlock()
}

// canRunLocked reports whether one more job on lane may start now.
func (s *Scheduler) canRunLocked(lane Lane) bool {
	if s.running >= s.workers {
		return false
	}
	return lane != LaneBatch || s.runningBatch < s.batchCap
}

// grantStartLocked accounts one job starting on lane.
func (s *Scheduler) grantStartLocked(lane Lane) {
	s.running++
	if lane == LaneBatch {
		s.runningBatch++
	}
}

// Acquire admits one request: it either grants a worker slot (release
// must be called exactly once when the run finishes) or refuses with a
// typed error — ErrQueueFull past the queue bound, ErrShuttingDown for
// batch work during a drain, or ErrCanceled when ctx dies while queued.
func (s *Scheduler) Acquire(ctx context.Context, tenant string, lane Lane) (release func(), err error) {
	s.mu.Lock()
	t := s.tenantFor(tenant)
	if s.draining && lane == LaneBatch {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: batch lane abandoned by drain", apierr.ErrShuttingDown)
	}
	if s.queuedLane[lane] == 0 && s.canRunLocked(lane) {
		s.grantStartLocked(lane)
		s.mu.Unlock()
		return func() { s.release(lane) }, nil
	}
	if s.maxQueue < 0 || (s.maxQueue > 0 && s.queued >= int64(s.maxQueue)) {
		t.shed++
		capacity := s.workers
		if s.maxQueue > 0 {
			capacity += s.maxQueue
		}
		s.mu.Unlock()
		return nil, fmt.Errorf("%w (capacity %d)", apierr.ErrQueueFull, capacity)
	}
	w := &waiter{ready: make(chan struct{}), t: t, lane: lane}
	t.queues[lane] = append(t.queues[lane], w)
	t.queued++
	s.queued++
	s.queuedLane[lane]++
	s.rotors[lane].add(t)
	s.mu.Unlock()

	select {
	case <-w.ready:
		if w.err != nil {
			return nil, w.err
		}
		return func() { s.release(lane) }, nil
	case <-ctx.Done():
		s.mu.Lock()
		switch {
		case w.granted:
			// Raced with a grant: the slot is ours, hand it back.
			s.releaseLocked(lane)
			s.mu.Unlock()
		case w.err != nil:
			// Raced with a refusal (drain): nothing held; report the
			// cancellation, which is what this caller observed.
			s.mu.Unlock()
		default:
			w.canceled = true
			t.queued--
			t.dropped++
			s.queued--
			s.queuedLane[lane]--
			s.dropped++
			s.mu.Unlock()
		}
		return nil, apierr.Canceled(ctx.Err())
	}
}

func (s *Scheduler) release(lane Lane) {
	s.mu.Lock()
	s.releaseLocked(lane)
	s.mu.Unlock()
}

// releaseLocked returns one lane's slot and hands freed capacity to
// queued waiters: interactive first, then batch under its cap — the
// lane-priority half of the admission policy. DWRR across tenants
// happens inside each lane's rotor.
func (s *Scheduler) releaseLocked(lane Lane) {
	s.running--
	if lane == LaneBatch {
		s.runningBatch--
	}
	s.dispatchLocked()
}

func (s *Scheduler) dispatchLocked() {
	for s.running < s.workers {
		var w *waiter
		var lane Lane
		switch {
		case s.queuedLane[LaneInteractive] > 0:
			lane = LaneInteractive
			w = s.rotors[LaneInteractive].pick()
		case s.queuedLane[LaneBatch] > 0 && s.runningBatch < s.batchCap && !s.draining:
			lane = LaneBatch
			w = s.rotors[LaneBatch].pick()
		}
		if w == nil {
			return
		}
		w.t.queued--
		s.queued--
		s.queuedLane[lane]--
		w.granted = true
		s.grantStartLocked(lane)
		close(w.ready)
	}
}

// Drain abandons all queued batch-lane work with ErrShuttingDown and
// stops admitting new batch work; queued interactive work keeps being
// scheduled so a graceful shutdown finishes the latency-sensitive
// queue before the engine's hard stop fires. Idempotent.
func (s *Scheduler) Drain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return
	}
	s.draining = true
	s.abandonLaneLocked(LaneBatch)
}

// Halt abandons every still-queued waiter in both lanes — the engine's
// hard stop, fired when the drain deadline expires with interactive
// work still queued. Idempotent.
func (s *Scheduler) Halt() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.draining = true
	s.abandonLaneLocked(LaneBatch)
	s.abandonLaneLocked(LaneInteractive)
}

// abandonLaneLocked fails every live queued waiter on lane with
// ErrShuttingDown and resets the lane's rotor.
func (s *Scheduler) abandonLaneLocked(lane Lane) {
	r := &s.rotors[lane]
	for _, t := range r.ring {
		for _, w := range t.queues[lane] {
			if w == nil || w.canceled {
				continue
			}
			w.err = fmt.Errorf("%w: abandoned in queue", apierr.ErrShuttingDown)
			t.queued--
			t.dropped++
			s.queued--
			s.queuedLane[lane]--
			s.dropped++
			close(w.ready)
		}
		t.queues[lane] = nil
		t.deficit[lane] = 0
		t.inRing[lane] = false
	}
	r.ring = nil
	r.idx = 0
	r.arrived = false
}

// Snapshot renders the scheduler's counters for Stats.
func (s *Scheduler) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := Snapshot{
		Queued:            s.queued,
		InteractiveQueued: s.queuedLane[LaneInteractive],
		BatchQueued:       s.queuedLane[LaneBatch],
		Dropped:           s.dropped,
		QuotaShed:         s.quotaShed,
		Tenants:           make(map[string]TenantStats, len(s.tenants)),
	}
	for name, t := range s.tenants {
		snap.Tenants[name] = TenantStats{
			Weight:    t.weight,
			Served:    t.served,
			Shed:      t.shed,
			QuotaShed: t.quotaShed,
			Dropped:   t.dropped,
			Queued:    t.queued,
		}
	}
	return snap
}
