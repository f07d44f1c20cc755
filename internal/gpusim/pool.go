package gpusim

import (
	"sync"
	"sync/atomic"

	"gpa/internal/arch"
)

// Per-run state recycling. Every piece of mutable state a Run call
// needs — SM shells with their warp/scheduler/icache slices, the
// per-PC run tables, per-SM block lists, and the parallel-mode outcome
// and sample buffers — lives in an arena recycled through a sync.Pool
// hung off the Program. A Program is the natural pool key: every
// per-PC slice is sized by len(p.Instrs), so an arena recycled under
// the same program re-slices its backing arrays without allocating,
// and gpa.Kernel (which caches one Program per kernel) makes a warm
// serving engine reuse the same arenas run after run.
//
// Ownership contract: everything inside an arena is owned by exactly
// one Run call and is recycled when Run returns, so nothing that
// escapes a Run (the Result, recorded Samples) may alias arena memory.
// Results come from a second per-program pool instead: Run hands
// ownership of the returned *Result to the caller, and the caller MAY
// hand it back with Program.Recycle once it has copied what it needs.
// After Recycle the Result must not be touched; callers that retain
// results simply never recycle them.

// arena is one Run call's worth of reusable simulator state.
type arena struct {
	rt       runTables
	sms      []*sm
	blocks   [][]int
	outcomes []smOutcome
	sinks    []sliceSink
}

// smOutcome collects one SM's results in parallel mode for in-order
// merging after the join.
type smOutcome struct {
	cycles  int64
	issued  []int64
	samples []Sample
	err     error
	work    smWork
}

// poolGets/poolHits count arena acquisitions and how many were served
// from a pool instead of freshly allocated; gpad surfaces them in
// /statsz so warm-path reuse is observable in production.
var (
	poolGets atomic.Int64
	poolHits atomic.Int64
)

// PoolStats reports how many per-run state arenas have been acquired
// process-wide and how many of those were recycled pool hits.
func PoolStats() (gets, hits int64) {
	return poolGets.Load(), poolHits.Load()
}

// ffPeriods/ffCycles/ffFallbacks accumulate the steady-state memoizer's
// counters process-wide (see steady.go); gpad surfaces them in /statsz
// alongside the pool counters.
var (
	ffPeriods   atomic.Int64
	ffCycles    atomic.Int64
	ffFallbacks atomic.Int64
)

// FFStats reports process-wide steady-state fast-forward activity:
// period templates locked in, SM-cycles skipped analytically, and
// candidates abandoned to the normal stepping fallback.
func FFStats() (periods, cycles, fallbacks int64) {
	return ffPeriods.Load(), ffCycles.Load(), ffFallbacks.Load()
}

func (p *Program) getArena() *arena {
	poolGets.Add(1)
	if a, _ := p.arenaPool.Get().(*arena); a != nil {
		poolHits.Add(1)
		return a
	}
	return &arena{}
}

func (p *Program) putArena(a *arena) { p.arenaPool.Put(a) }

// grow makes the arena's per-SM tables at least n entries long before
// concurrent SM goroutines index into them.
func (a *arena) grow(n int) {
	for len(a.sms) < n {
		a.sms = append(a.sms, &sm{})
	}
	for len(a.blocks) < n {
		a.blocks = append(a.blocks, nil)
	}
	if cap(a.outcomes) < n {
		a.outcomes = make([]smOutcome, n)
	}
	a.outcomes = a.outcomes[:n]
	for i := range a.outcomes {
		// Full reset: the merge loop treats a nil issued slice as "this
		// SM never ran", so a recycled outcome must not retain the
		// prior run's pointer (the worker overwrites it when the SM
		// does run, so keeping it would buy nothing anyway).
		a.outcomes[i] = smOutcome{}
	}
	for len(a.sinks) < n {
		a.sinks = append(a.sinks, sliceSink{})
	}
	for i := 0; i < n; i++ {
		a.sinks[i].samples = a.sinks[i].samples[:0]
	}
}

// buildRunTables fills the arena's per-PC tables for this run (see
// runTables); the backing slices are reused across runs.
func (a *arena) buildRunTables(p *Program, wl Workload, g *arch.GPU) *runTables {
	n := len(p.Instrs)
	rt := &a.rt
	rt.issueCost = resizeInt64(rt.issueCost, n)
	rt.baseLat = resizeInt64(rt.baseLat, n)
	rt.tx = resizeInt32(rt.tx, n)
	rt.need = resizeInt32(rt.need, n)
	rt.line = resizeInt32(rt.line, n+1)
	for i := range rt.line {
		rt.line[i] = int32(i / g.ICacheLineInstrs)
	}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		rt.issueCost[i] = int64(g.IssueCost(in.Opcode))
		rt.tx[i] = 1
		// Transactions is only defined for memory instructions; the
		// simulator also consults it for other variable-latency ops
		// (their issue path always has).
		if p.meta[i].flags&(metaMemory|metaVarLat) != 0 {
			rt.tx[i] = int32(max(1, wl.Transactions(i)))
		}
		if p.meta[i].flags&metaNeedMSHR != 0 {
			rt.need[i] = rt.tx[i]
		}
		if p.meta[i].flags&metaVarLat == 0 {
			continue
		}
		rt.baseLat[i] = int64(g.VariableBaseLatency(in.Opcode))
	}
	return rt
}

// getResult takes a Result from the program's pool (or allocates one)
// with IssuedPerPC sized and cleared; all other fields are zero.
func (p *Program) getResult() *Result {
	r, _ := p.resultPool.Get().(*Result)
	if r == nil {
		r = &Result{}
	}
	*r = Result{IssuedPerPC: resizeInt64(r.IssuedPerPC, len(p.Instrs))}
	return r
}

// Recycle returns a Result produced by Run on this program to the
// per-program pool so the next Run reuses its storage. It is optional:
// callers that retain the Result just let the GC have it. After
// Recycle the Result (including its IssuedPerPC slice) must not be
// used.
func (p *Program) Recycle(res *Result) {
	if res == nil {
		return
	}
	p.resultPool.Put(res)
}

// resizeInt64 returns s resized to n entries, reusing its backing
// array when it is large enough, with every entry zeroed.
func resizeInt64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// resizeInt32 is resizeInt64 for int32 slices.
func resizeInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// resetICache returns use resized to n lines with every line marked
// not-resident.
func resetICache(use []int64, n int) []int64 {
	if cap(use) < n {
		use = make([]int64, n)
	}
	use = use[:n]
	for i := range use {
		use[i] = -1
	}
	return use
}

// resetScheds returns sch resized to n schedulers, each zeroed but
// keeping its warp-list backing.
func resetScheds(sch []scheduler, n int) []scheduler {
	if cap(sch) < n {
		sch = append(sch[:cap(sch)], make([]scheduler, n-cap(sch))...)
	}
	sch = sch[:n]
	for i := range sch {
		sch[i] = scheduler{warps: sch[i].warps[:0], gates: sch[i].gates[:0], wants: sch[i].wants[:0]}
	}
	return sch
}

// growSlot extends slots by one entry, reusing a recycled entry's
// warp-list backing when spare capacity exists.
func growSlot(slots []blockSlot) []blockSlot {
	if n := len(slots); n < cap(slots) {
		slots = slots[:n+1]
		slots[n] = blockSlot{warps: slots[n].warps[:0]}
		return slots
	}
	return append(slots, blockSlot{})
}

// poolsOf is the set of sync.Pools a Program carries; split into its
// own struct so Program's exported surface stays data-only.
type poolsOf struct {
	arenaPool  sync.Pool // *arena
	resultPool sync.Pool // *Result
}
