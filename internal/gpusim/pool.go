package gpusim

import (
	"sync"
	"sync/atomic"

	"gpa/internal/arch"
)

// Per-run state recycling. Every piece of mutable state a Run call
// needs — one SM shell per worker with its warp/scheduler/icache
// slices, the per-PC run tables and the per-SM sink table — lives in
// an arena recycled through one package-wide sync.Pool. Shells are per
// worker, not per SM: a run at parallelism w holds w shells however
// many SMs it simulates, each reused for every SM its worker takes. An
// arena is not tied to a program: every per-PC slice is resized to
// len(p.Instrs) when a run takes it (resizeInt64, resizeInt32, a warp's
// visits in startBlock), reusing its backing array when that is large
// enough, so every program in the process draws on one pool and a
// program that has never run reuses an arena another one left.
//
// Ownership contract: everything inside an arena is owned by exactly
// one Run call and is recycled when Run returns, so nothing that
// escapes a Run (the Result, recorded Samples) may alias arena memory.
// Results come from a second package-wide pool instead: Run hands
// ownership of the returned *Result to the caller, and the caller MAY
// hand it back with Program.Recycle once it has copied what it needs.
// After Recycle the Result must not be touched; callers that retain
// results simply never recycle them.

// arenaPool and resultPool are the package's two pools (*arena and
// *Result), shared by every program.
var arenaPool, resultPool sync.Pool

// arena is one Run call's worth of reusable simulator state.
type arena struct {
	rt      runTables
	job     smJob
	workers []*smWorker
	// sinks[sm] is where SM sm records: a shard of the configured sink,
	// the sink itself, or nil — resolved serially before any SM starts.
	sinks []SampleSink

	// next hands out SM ids in order; failed stops the hand-out once any
	// SM has failed; wg joins the worker goroutines.
	next   atomic.Int32
	failed atomic.Bool
	wg     sync.WaitGroup
}

// getArena takes an arena from the pool, or allocates one; reused
// says which (Work.ArenaReused).
func getArena() (a *arena, reused bool) {
	if a, _ := arenaPool.Get().(*arena); a != nil {
		return a, true
	}
	return &arena{}, false
}

// grow readies n workers, each with a cleared partial result over
// numPCs instructions, and rewinds the SM counter.
func (a *arena) grow(n, numPCs int) {
	for len(a.workers) < n {
		w := &smWorker{ar: a}
		w.loop = w.goDrain
		a.workers = append(a.workers, w)
	}
	for _, w := range a.workers[:n] {
		w.failSM, w.err, w.panicked = -1, nil, nil
		w.partial = Result{IssuedPerPC: resizeInt64(w.partial.IssuedPerPC, numPCs)}
	}
	a.next.Store(0)
	a.failed.Store(false)
}

// resolveSinks fills the per-SM sink table for n SMs: the shards of a
// ShardedSink, otherwise the sink itself (an ordered sink's run has one
// worker, which records the SMs into it in order) or nil.
func (a *arena) resolveSinks(sink SampleSink, n int) {
	if cap(a.sinks) < n {
		a.sinks = make([]SampleSink, n)
	}
	a.sinks = a.sinks[:n]
	sharded, _ := sink.(ShardedSink)
	for sm := range a.sinks {
		if sharded != nil {
			a.sinks[sm] = sharded.Shard(sm)
		} else {
			a.sinks[sm] = sink
		}
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

// getResult takes a Result from the pool (or allocates one) with
// IssuedPerPC sized to numPCs and cleared; all other fields are zero.
func getResult(numPCs int) *Result {
	r, _ := resultPool.Get().(*Result)
	if r == nil {
		r = &Result{}
	}
	*r = Result{IssuedPerPC: resizeInt64(r.IssuedPerPC, numPCs)}
	return r
}

// Recycle returns a Result produced by Run to the pool so a later Run,
// on this program or any other, reuses its storage. It is optional:
// callers that retain the Result just let the GC have it. After
// Recycle the Result (including its IssuedPerPC slice) must not be
// used.
func (p *Program) Recycle(res *Result) {
	if res == nil {
		return
	}
	resultPool.Put(res)
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
