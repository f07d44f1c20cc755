package gpusim

import (
	"context"
	"fmt"
	"math/bits"

	"gpa/internal/apierr"
	"gpa/internal/arch"
	"gpa/internal/sass"
)

// farFuture is the sentinel "no event scheduled" cycle: the warp (or
// SM) cannot make progress until an explicit wake — barrier release or
// block rotation — resets it.
const farFuture = int64(1<<62 - 1)

// maxCallDepth bounds a warp's call stack. The corpus's deepest call
// chain is 1; a CAL past the bound (unbounded recursion) fails the run
// with ErrSimLimit instead of growing the stack until the cycle cap.
const maxCallDepth = 1024

type warpState struct {
	ctx        WarpCtx
	slot       int // block slot index
	pc         int
	callStack  []int
	exited     bool
	barWait    bool
	nextIssue  int64
	issueStall StallReason // reason reported while nextIssue is pending
	fetchReady int64
	barReady   [sass.NumBarriers]int64
	barReason  [sass.NumBarriers]StallReason
	// visits[pc] counts dynamic executions of the branch at flat PC pc.
	// Only branches advance it: at a variable-latency site it stays 0,
	// so Workload.Latency and the jitter hash always see visit 0 there
	// and a (warp, pc) pair has one latency for the whole run. The
	// pinned behaviour (DRIFT.txt) and the fast-forward both rest on
	// that; TestMemoryLatencySeesVisitZero pins it.
	visits []int32
	// lastIssuedPC / lastIssueCycle feed active "selected" samples.
	lastIssuedPC   int
	lastIssueCycle int64
}

// Wake gates. A warp's private gate is the first cycle its own state
// lets it issue: the max of nextIssue, fetchReady and the barReady
// entries in its next instruction's wait mask (farFuture while it is
// exited or parked at a BAR.SYNC). Those fields change only through
// the warp's own issue, a barrier release, or a block start, and
// setGate recomputes the gate at exactly those three points, so the
// stored value is exact, never a bound to re-probe. What remains is
// shared state the scan reads live: the MSHR pool and the scheduler's
// execution-unit occupancy, against the (exec class, MSHR demand) pair
// setGate stores next to the gate. Gates and wants live in dense
// per-scheduler arrays (not in warpState) so the scan walks 8 bytes per
// sleeping warp instead of the whole warp record.

type blockSlot struct {
	warps      []int // indices into sm.warps
	arrived    int   // warps waiting at BAR.SYNC
	aliveCount int
	done       bool
}

type scheduler struct {
	warps []int // indices into sm.warps
	// gates[i] is warps[i]'s exact private wake gate and wants[i] what
	// its next instruction needs of the shared resources (see "Wake
	// gates" above). For warp index w the entries live at scheduler
	// w%NumScheds, slot w/NumScheds (warps are dealt round-robin in
	// index order).
	gates     []int64
	wants     []issueWant
	rotate    int  // LRR issue pointer
	samplePtr int  // round-robin sampled-warp pointer
	issuedNow bool // issued at the current cycle
	// nextReady is a lower bound on the next cycle any resident warp
	// could issue, letting the run loop skip fruitless full-warp scans
	// and feed the whole-SM cycle skip. 0 forces a scan; events that
	// can wake this scheduler's warps asynchronously (MSHR release when
	// throttled, barrier release, block rotation) reset it.
	nextReady int64
	// throttled records whether the last scan saw a warp stalled on the
	// MSHR pool; only such schedulers need a rescan when a release
	// frees slots.
	throttled bool
	// unitBusy models per-partition execution-unit throughput: on
	// Volta-family SMs (Volta, Turing, Ampere) each scheduler owns its
	// FP32/INT/FP64/SFU pipes; the per-class costs come from
	// arch.GPU.IssueCost.
	unitBusy [16]int64 // per exec class
}

// issueWant is the shared-resource demand of a warp's next instruction.
type issueWant struct {
	need  int32 // MSHR slots (0 for anything but a global/local/generic access)
	class sass.ExecClass
}

type mshrRelease struct {
	cycle int64
	count int
}

// runTables holds per-run, per-PC tables shared read-only by every SM of
// one Run call: GPU-dependent issue costs and default memory latencies,
// and workload-dependent transaction counts. Precomputing them once per
// run keeps Opcode.Info, latency switches, and Workload.Transactions
// calls off the per-cycle path.
type runTables struct {
	issueCost []int64 // per PC: scheduler dispatch occupancy
	baseLat   []int64 // per PC: default variable-latency base (0 = fixed)
	tx        []int32 // per PC: max(1, workload transactions)
	need      []int32 // per PC: MSHR slots the issue takes (tx, or 0)
	// line[pc] is pc's instruction-cache line; one entry past the last
	// instruction so a fall-through PC can be looked up before it is
	// fetched.
	line []int32
}

type sm struct {
	id     int
	p      *Program
	meta   []instrMeta
	rt     *runTables
	wl     Workload
	gpu    *arch.GPU
	cfg    Config
	launch LaunchConfig
	entry  int

	scheds []scheduler
	warps  []warpState
	slots  []blockSlot

	// The SM runs grid blocks id, id+NumSMs, id+2·NumSMs, ...: blocks
	// of them, nextBlock of which have started.
	blocks    int
	nextBlock int
	// doneSlots counts block slots that have drained with the queue
	// empty; allDone is O(1) against it instead of walking the slots.
	doneSlots int

	mshrFree int
	releases []mshrRelease
	// minRelease caches the earliest pending MSHR release cycle so the
	// run loop only compacts the release list when one is actually due.
	minRelease int64

	// icacheUse[line] is the line's last-use cycle (-1 = not resident);
	// flattened from a map since lines are dense and few.
	icacheUse      []int64
	icacheResident int
	icacheCap      int
	// fetchBusy serializes instruction-cache miss handling: the fetch
	// unit services one miss at a time.
	fetchBusy int64

	issuedPerPC []int64
	warpsPerBlk int
	tick        int64 // sampling tick counter
	sink        SampleSink
	// period is the sampling period in cycles, 0 when the run does not
	// sample (no period configured, or no sink to sample for).
	period int64
	// wakeSeq increments on every explicit wake (barrier release, block
	// rotation), letting the scheduler scan detect that an issue's side
	// effects invalidated the nextReady bound it was accumulating.
	wakeSeq uint64
	// loopIters and readyCalls are the run's deterministic work record
	// (Result.LoopIterations / Result.ReadyCalls).
	loopIters  int64
	readyCalls int64
	// lastProgress is the cycle of the most recent issue, reported by
	// the livelock guard.
	lastProgress int64
	// fault is set by an issue that cannot proceed (a call past
	// maxCallDepth); the run loop fails with it after the scan.
	fault error
	// steady is the steady-state loop memoizer (see steady.go): period
	// detection, the recorded period template, and the fast-forward
	// counters.
	steady steadyState
}

// newSM (re)initializes an SM shell for one run. The shell comes from
// a run-state arena: every slice it carries is resized in place and
// reused, so a warm shell initializes without heap allocations (see
// pool.go for the recycling contract).
func newSM(shell *sm, id int, j *smJob, sink SampleSink) *sm {
	s := shell
	p, cfg := j.p, j.cfg
	lines := (len(p.Instrs) + cfg.GPU.ICacheLineInstrs - 1) / cfg.GPU.ICacheLineInstrs
	*s = sm{
		id: id, p: p, meta: p.meta, rt: j.rt, wl: j.wl, gpu: cfg.GPU, cfg: cfg, launch: j.launch,
		entry:       j.entry,
		scheds:      resetScheds(s.scheds, cfg.GPU.SchedulersPerSM),
		warps:       s.warps[:0],
		slots:       s.slots[:0],
		blocks:      blocksOnSM(id, j.blocks, cfg.GPU.NumSMs),
		mshrFree:    cfg.GPU.MSHRsPerSM,
		releases:    s.releases[:0],
		minRelease:  farFuture,
		icacheUse:   resetICache(s.icacheUse, lines),
		icacheCap:   max(1, cfg.GPU.ICacheInstrs/cfg.GPU.ICacheLineInstrs),
		issuedPerPC: resizeInt64(s.issuedPerPC, len(p.Instrs)),
		warpsPerBlk: j.warpsPerBlock,
		sink:        sink,
		steady:      resetSteady(s.steady, j.wl, cfg.stepEveryCycle || cfg.noSteady),
	}
	if sink != nil {
		s.period = int64(cfg.SamplePeriod)
	}
	resident := min(j.occ.BlocksPerSM, s.blocks)
	for slot := 0; slot < resident; slot++ {
		s.slots = growSlot(s.slots)
		s.startBlock(slot, 0)
	}
	return s
}

// wakeAll forces every scheduler to rescan its warps; block rotation
// uses it because a rotated-in block's fresh warps are spread over all
// schedulers.
func (s *sm) wakeAll() {
	s.wakeSeq++
	for i := range s.scheds {
		s.scheds[i].nextReady = 0
	}
}

// startBlock (re)fills a block slot with the next queued block at the
// given cycle; it returns false when the queue is empty.
func (s *sm) startBlock(slot int, now int64) bool {
	if s.nextBlock >= s.blocks {
		if !s.slots[slot].done {
			s.slots[slot].done = true
			s.doneSlots++
		}
		return false
	}
	blockID := s.id + s.nextBlock*s.gpu.NumSMs
	s.nextBlock++
	bs := &s.slots[slot]
	bs.arrived = 0
	bs.aliveCount = s.warpsPerBlk
	bs.done = false
	if len(bs.warps) == 0 {
		for wi := 0; wi < s.warpsPerBlk; wi++ {
			widx := len(s.warps)
			bs.warps = append(bs.warps, widx)
			s.warps = growWarp(s.warps)
			// Warps are distributed round-robin over schedulers.
			sc := widx % len(s.scheds)
			s.scheds[sc].warps = append(s.scheds[sc].warps, widx)
			s.scheds[sc].gates = append(s.scheds[sc].gates, 0)
			s.scheds[sc].wants = append(s.scheds[sc].wants, issueWant{})
		}
	}
	for wi, widx := range bs.warps {
		w := &s.warps[widx]
		// A recycled warp may come from another program's run: resize,
		// not just clear.
		visits := resizeInt32(w.visits, len(s.p.Instrs))
		*w = warpState{
			slot: slot,
			ctx: WarpCtx{
				SM:          s.id,
				Block:       blockID,
				WarpInBlock: wi,
				GlobalWarp:  blockID*s.warpsPerBlk + wi,
			},
			pc:        s.entry,
			nextIssue: now + int64(s.gpu.BlockLaunchOverhead),
			visits:    visits,
			callStack: w.callStack[:0],
		}
		s.setGate(widx)
	}
	s.wakeAll()
	return true
}

// growWarp extends warps by one entry, reusing a recycled entry's
// visits and callStack backing when spare capacity exists.
func growWarp(warps []warpState) []warpState {
	if n := len(warps); n < cap(warps) {
		return warps[:n+1]
	}
	return append(warps, warpState{})
}

// setGate recomputes warp widx's wake gate and resource demand from
// its state (round-robin deal: scheduler widx%N, slot widx/N). It must
// run after everything that moves the warp's pc, nextIssue, fetchReady,
// barReady, exited or barWait.
func (s *sm) setGate(widx int) {
	n := len(s.scheds)
	s.setGateAt(&s.scheds[widx%n], widx/n, &s.warps[widx])
}

// setGateAt is setGate for a caller that already holds the warp's
// scheduler and slot (the scan, once per issue).
func (s *sm) setGateAt(sc *scheduler, slot int, w *warpState) {
	if w.exited || w.barWait {
		sc.gates[slot] = farFuture
		return
	}
	m := &s.meta[w.pc]
	gate := max(w.nextIssue, w.fetchReady)
	for wm := m.waitMask; wm != 0; wm &= wm - 1 {
		if r := w.barReady[bits.TrailingZeros8(wm)]; r > gate {
			gate = r
		}
	}
	sc.gates[slot] = gate
	sc.wants[slot] = issueWant{need: s.rt.need[w.pc], class: m.class}
}

func (s *sm) allDone() bool {
	return s.nextBlock >= s.blocks && s.doneSlots == len(s.slots)
}

// ready reports whether warp w can issue at cycle now and the stall
// reason when it cannot, from the warp's raw state. It is the reference
// the wake gates are checked against — the cycle stepper issues by it —
// and what a PC sample reports; the event-driven scan never calls it.
// The returned reason for a ready warp is ReasonNotSelected (a sample
// of the issuer itself reports ReasonNone, see observe).
func (s *sm) ready(sc *scheduler, w *warpState, now int64) (bool, StallReason) {
	s.readyCalls++
	if w.exited {
		return false, ReasonIdle
	}
	if w.barWait {
		return false, ReasonSync
	}
	if w.fetchReady > now {
		return false, ReasonInstructionFetch
	}
	m := &s.meta[w.pc]
	// Scoreboard wait mask: the slowest pending barrier gates issue.
	var worst int64
	reason := ReasonNone
	for wm := m.waitMask; wm != 0; wm &= wm - 1 {
		b := bits.TrailingZeros8(wm)
		if r := w.barReady[b]; r > now && r > worst {
			worst = r
			reason = w.barReason[b]
		}
	}
	if worst > 0 {
		return false, reason
	}
	if w.nextIssue > now {
		return false, w.issueStall
	}
	if s.mshrFree < int(s.rt.need[w.pc]) {
		return false, ReasonMemoryThrottle
	}
	if sc.unitBusy[m.class] > now {
		return false, ReasonPipeBusy
	}
	return true, ReasonNotSelected
}

func spaceNeedsMSHR(op sass.Opcode) bool {
	switch op.Info().Class {
	case sass.ClassMemGlobal, sass.ClassMemLocal, sass.ClassMemGeneric:
		return true
	}
	return false
}

// memLatency models the completion latency of a variable-latency
// instruction.
func (s *sm) memLatency(w *warpState, pc int, tx int) int64 {
	if lat := s.wl.Latency(w.ctx, pc); lat > 0 {
		return int64(lat)
	}
	base := s.rt.baseLat[pc]
	// Deterministic jitter: ±12% keyed by (seed, warp, pc).
	h := splitmix(s.cfg.Seed ^ uint64(w.ctx.GlobalWarp)<<32 ^ uint64(pc)<<8)
	jitter := int64(h%uint64(max(1, base/4))) - base/8
	// Uncoalesced accesses serialize their extra transactions.
	extra := int64(0)
	if tx > 1 && s.meta[pc].flags&metaNeedMSHR != 0 {
		extra = int64(tx-1) * int64(s.gpu.UncoalescedPenalty)
	}
	lat := base + jitter + extra
	if lat < 2 {
		lat = 2
	}
	return lat
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// barrierReasonFor maps a variable-latency producer to the stall reason
// a consumer waiting on its barrier reports.
func barrierReasonFor(op sass.Opcode) StallReason {
	switch op.Info().Class {
	case sass.ClassMemGlobal, sass.ClassMemLocal, sass.ClassMemConst, sass.ClassMemGeneric:
		return ReasonMemoryDependency
	case sass.ClassMemShared:
		return ReasonExecutionDependency
	}
	// MUFU, IDIV, S2R, SHFL and read-barrier (WAR) waits are execution
	// dependencies.
	return ReasonExecutionDependency
}

// icacheCheck models the instruction cache at a control transfer to
// target; sequential flow never misses (hardware prefetches linearly).
func (s *sm) icacheCheck(w *warpState, target int, now int64) {
	line := s.rt.line[target]
	if s.icacheUse[line] >= 0 {
		s.icacheUse[line] = now
		return
	}
	// Miss: evict LRU if full, install, stall the warp. Misses are
	// serviced through a shared fetch unit, so concurrent misses
	// serialize (GPU.FetchSerializeCycles each).
	s.steady.missCount++
	if s.icacheResident >= s.icacheCap {
		lruLine := -1
		lruCycle := farFuture
		for l, c := range s.icacheUse {
			if c >= 0 && c < lruCycle {
				lruCycle, lruLine = c, l
			}
		}
		s.icacheUse[lruLine] = -1
		s.icacheResident--
	}
	s.icacheUse[line] = now
	s.icacheResident++
	start := now
	if s.fetchBusy > start {
		start = s.fetchBusy
	}
	w.fetchReady = start + int64(s.gpu.IFetchMissLatency)
	s.fetchBusy = start + int64(s.gpu.FetchSerializeCycles)
}

// issue executes one instruction for warp w at cycle now.
func (s *sm) issue(sc *scheduler, widx int, now int64) {
	w := &s.warps[widx]
	pc := w.pc
	m := &s.meta[pc]
	s.issuedPerPC[pc]++
	w.lastIssuedPC = pc
	w.lastIssueCycle = now

	stall := int64(m.stall)
	if stall < 1 {
		stall = 1
	}
	w.nextIssue = now + stall
	w.issueStall = m.issueStall
	sc.unitBusy[m.class] = now + s.rt.issueCost[pc]

	if m.flags&metaVarLat != 0 {
		tx := int(s.rt.tx[pc])
		lat := s.memLatency(w, pc, tx)
		if m.flags&metaNeedMSHR != 0 {
			s.mshrFree -= tx
			s.pushRelease(mshrRelease{cycle: now + lat, count: tx})
		}
		if wb := m.writeBar; wb != int8(sass.NoBarrier) {
			w.barReady[wb] = now + lat
			w.barReason[wb] = m.barReason
		}
		if rb := m.readBar; rb != int8(sass.NoBarrier) {
			// Source operands are consumed well before the result
			// lands; WAR hazards clear earlier.
			readDone := now + min(lat, 20)
			if w.barReady[rb] < readDone {
				w.barReady[rb] = readDone
				w.barReason[rb] = ReasonExecutionDependency
			}
		}
	}

	// Control flow.
	line := s.rt.line
	switch m.ctrl {
	case ctrlCond, ctrlUncond:
		visit := int(w.visits[pc])
		w.visits[pc]++
		cond := m.ctrl == ctrlCond
		taken := !cond || s.wl.Taken(w.ctx, pc, visit)
		if st := &s.steady; st.enabled {
			if st.recording {
				st.execs = append(st.execs, steadyExec{
					widx: int32(widx), pc: int32(pc),
					outcome: taken, probe: cond,
				})
			}
			if taken && s.p.Target(pc) <= pc {
				// A taken backward branch is a loop back-edge: the
				// anchor warp's back-edges are where fingerprints are
				// compared. If the anchor warp parked (exited or
				// barrier-blocked), the first other warp to take a
				// back-edge inherits the anchor.
				if widx == st.anchorWarp {
					st.anchorHit = true
				} else if aw := &s.warps[st.anchorWarp]; aw.exited || aw.barWait {
					st.reelect(widx)
					st.anchorHit = true
				}
			}
		}
		if taken {
			w.pc = s.p.Target(pc)
			s.icacheCheck(w, w.pc, now)
		} else {
			w.pc = pc + 1
			if line[w.pc] != line[pc] {
				s.icacheCheck(w, w.pc, now)
			}
		}
	case ctrlCall:
		if len(w.callStack) >= maxCallDepth {
			s.fault = fmt.Errorf("gpusim: %w: SM %d warp %d: call depth exceeds %d at pc %d",
				apierr.ErrSimLimit, s.id, w.ctx.GlobalWarp, maxCallDepth, pc)
			return
		}
		w.callStack = append(w.callStack, pc+1)
		w.pc = s.p.Target(pc)
		s.icacheCheck(w, w.pc, now)
	case ctrlRet:
		if len(w.callStack) == 0 {
			s.exitWarp(w)
			return
		}
		w.pc = w.callStack[len(w.callStack)-1]
		w.callStack = w.callStack[:len(w.callStack)-1]
		s.icacheCheck(w, w.pc, now)
	case ctrlExit:
		s.exitWarp(w)
	case ctrlBar:
		w.barWait = true
		w.pc = pc + 1
		slot := &s.slots[w.slot]
		slot.arrived++
		s.maybeReleaseBarrier(slot)
	default:
		w.pc = pc + 1
		// Sequential flow fetches new lines as well: bodies larger than
		// the cache evict their own head and pay misses continuously.
		if line[w.pc] != line[pc] {
			s.icacheCheck(w, w.pc, now)
		}
	}
}

func (s *sm) exitWarp(w *warpState) {
	w.exited = true
	slot := &s.slots[w.slot]
	slot.aliveCount--
	s.maybeReleaseBarrier(slot)
	if slot.aliveCount == 0 {
		s.startBlock(w.slot, w.lastIssueCycle)
	}
}

// maybeReleaseBarrier wakes only the block's own warps: a barrier
// release cannot change any other warp's readiness, so their gates
// stand.
func (s *sm) maybeReleaseBarrier(slot *blockSlot) {
	if slot.aliveCount > 0 && slot.arrived >= slot.aliveCount {
		for _, widx := range slot.warps {
			s.warps[widx].barWait = false
			s.setGate(widx)
			s.scheds[widx%len(s.scheds)].nextReady = 0
		}
		slot.arrived = 0
		s.wakeSeq++
	}
}

// processReleases returns MSHR slots whose transactions completed.
// Freed slots can only wake warps stalled on ReasonMemoryThrottle, so
// only schedulers whose last scan saw one rescan; wake gates are
// private time and a release cannot move them. The pending releases form a
// binary min-heap on cycle, so a call pops only the due entries
// instead of compacting the whole list.
func (s *sm) processReleases(now int64) {
	released := false
	for len(s.releases) > 0 && s.releases[0].cycle <= now {
		s.mshrFree += s.releases[0].count
		released = true
		s.popRelease()
	}
	if len(s.releases) > 0 {
		s.minRelease = s.releases[0].cycle
	} else {
		s.minRelease = farFuture
	}
	if released {
		for si := range s.scheds {
			if s.scheds[si].throttled {
				s.scheds[si].nextReady = 0
			}
		}
	}
}

// pushRelease adds a pending MSHR release to the min-heap and keeps
// minRelease at the root.
func (s *sm) pushRelease(r mshrRelease) {
	h := append(s.releases, r)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].cycle <= h[i].cycle {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	s.releases = h
	if h[0].cycle < s.minRelease {
		s.minRelease = h[0].cycle
	}
}

// popRelease removes the heap root (the earliest pending release).
func (s *sm) popRelease() {
	h := s.releases
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l := 2*i + 1
		if l >= last {
			break
		}
		if r := l + 1; r < last && h[r].cycle < h[l].cycle {
			l = r
		}
		if h[i].cycle <= h[l].cycle {
			break
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
	s.releases = h
}

// nextSampled advances the sampling unit by one tick: it cycles
// round-robin over the warp schedulers (one scheduler per period, per
// Figure 1 of the paper) and rotates over the scheduler's resident
// warps. widx is -1 when the scheduler has no live warp to sample.
func (s *sm) nextSampled() (schedIdx, widx int) {
	schedIdx = int(s.tick) % len(s.scheds)
	s.tick++
	sc := &s.scheds[schedIdx]
	n := len(sc.warps)
	for i := 0; i < n; i++ {
		cand := sc.warps[(sc.samplePtr+i)%n]
		if !s.warps[cand].exited {
			sc.samplePtr = (sc.samplePtr + i + 1) % n
			return schedIdx, cand
		}
	}
	return schedIdx, -1
}

// observe is what a sample of warp w taken at cycle now reports: the
// instruction it issued this cycle, or the one it is stalled at and
// why.
func (s *sm) observe(sc *scheduler, w *warpState, now int64) (pc int, reason StallReason) {
	if w.lastIssueCycle == now && now > 0 {
		return w.lastIssuedPC, ReasonNone
	}
	_, reason = s.ready(sc, w, now)
	return w.pc, reason
}

// sampleTick records one PC sample at cycle now.
func (s *sm) sampleTick(now int64) {
	schedIdx, widx := s.nextSampled()
	if widx < 0 {
		return
	}
	sc := &s.scheds[schedIdx]
	pc, reason := s.observe(sc, &s.warps[widx], now)
	s.sink.Record(Sample{
		SM:        s.id,
		Scheduler: schedIdx,
		Warp:      widx,
		Cycle:     now,
		Active:    sc.issuedNow,
		PC:        pc,
		Reason:    reason,
	})
}

// run drives the SM to completion and returns the final cycle.
// cancelCheckInterval is how many run-loop iterations pass between
// context polls. Each iteration advances at least one cycle (often
// many, via the event-driven skip), so cancellation lands within a
// bounded, small slice of simulated work while the per-iteration cost
// stays one counter decrement on the hot path.
const cancelCheckInterval = 4096

// run's loop is event-driven: after scanning the schedulers whose
// nextReady cursors are due, it jumps straight to the next interesting
// cycle — the minimum over the per-scheduler cursors and the earliest
// pending MSHR release. Fetch completions, scoreboard-barrier expiries,
// and pipe drains are folded into the cursors (a warp's gate is the max
// of its private waits); barrier releases and block rotations reset the
// affected cursors at the issue that causes them, so they can never be
// skipped over. Sample ticks fire on the way through a jump: the
// skipped span contains no issue and no state change, so each tick
// observes exactly the state a cycle-by-cycle walk would have seen
// (Config.stepEveryCycle retains that naive walk as a test oracle).
func (s *sm) run(ctx context.Context, maxCycles int64) (int64, error) {
	now := int64(0)
	period := s.period
	nextTick := period
	step := s.cfg.stepEveryCycle
	st := &s.steady
	s.lastProgress = 0
	checkIn := cancelCheckInterval
	for !s.allDone() {
		s.loopIters++
		if checkIn--; checkIn <= 0 {
			checkIn = cancelCheckInterval
			if err := apierr.CtxErr(ctx); err != nil {
				return 0, fmt.Errorf("gpusim: SM %d: %w", s.id, err)
			}
		}
		if now > maxCycles {
			return 0, fmt.Errorf("gpusim: %w: SM %d exceeded %d cycles (possible livelock; last progress at %d)",
				apierr.ErrSimLimit, s.id, maxCycles, s.lastProgress)
		}
		if s.minRelease <= now {
			s.processReleases(now)
		}
		for si := range s.scheds {
			sc := &s.scheds[si]
			sc.issuedNow = false
			if step {
				s.scanStep(sc, now)
			} else if sc.nextReady <= now {
				s.scan(sc, now)
			}
		}
		if s.fault != nil {
			return 0, s.fault
		}
		if period > 0 && now >= nextTick {
			s.sampleTick(now)
			nextTick += period
		}
		if st.observing {
			s.recordObservations(now)
		}
		if st.anchorHit {
			// The anchor warp took a loop back-edge this cycle: run the
			// steady-state detector on the post-scan, post-tick state —
			// it may fast-forward whole periods (see steady.go).
			st.anchorHit = false
			now, nextTick = s.steadyAnchor(now, nextTick, maxCycles)
		}
		if step || s.allDone() {
			// Stepper mode walks cycle by cycle; a completed SM (the
			// pass above issued its last EXIT) finishes one cycle after
			// its final issue — never at a later stale event such as an
			// exited warp's still-pending MSHR release.
			now++
			continue
		}
		// Whole-SM skip: the next cycle anything can happen is the
		// earliest scheduler cursor or MSHR release.
		next := s.minRelease
		for si := range s.scheds {
			if nr := s.scheds[si].nextReady; nr < next {
				next = nr
			}
		}
		if next >= farFuture {
			// No future event can wake this SM (deadlock or a throttle
			// no release will clear): jump straight to the livelock
			// guard instead of grinding one cycle at a time.
			next = maxCycles + 1
		}
		if next <= now {
			next = now + 1
		}
		if st.observing || (period > 0 && nextTick < next) {
			// Ticks inside the skipped span all observe the same stalled
			// state — as does a period recording, which notes what a
			// tick at every one of these cycles would have seen.
			for si := range s.scheds {
				s.scheds[si].issuedNow = false
			}
			for c := now + 1; c < next && st.observing; c++ {
				s.recordObservations(c)
			}
			for nextTick < next {
				s.sampleTick(nextTick)
				nextTick += period
			}
		}
		now = next
	}
	return now, nil
}

// scan is the event-driven scheduler pass: walk the warps in LRR order
// from the rotation pointer, issue the first whose gate has passed and
// whose shared resources are free, and gather the earliest cycle any
// other could issue into the nextReady cursor, so the scheduler sleeps
// through a whole issue epoch instead of rescanning every cycle.
func (s *sm) scan(sc *scheduler, now int64) {
	n := len(sc.gates)
	bound := farFuture
	seq := s.wakeSeq
	throttled := false
	issued := false
	// Walk the slots in rotation order from the LRR pointer. An issue
	// moves sc.rotate mid-scan, but the walk still covers every warp
	// exactly once in the original order.
	slot := sc.rotate
	for left := n; left > 0; left-- {
		wake := sc.gates[slot]
		if wake <= now {
			want := sc.wants[slot]
			if int(want.need) > s.mshrFree {
				// Only an MSHR release wakes it; processReleases
				// rescans throttled schedulers.
				throttled = true
				wake = farFuture
			} else if busy := sc.unitBusy[want.class]; busy > now {
				wake = busy
			} else if issued {
				wake = now // ready, not selected
			} else {
				widx := sc.warps[slot]
				s.issue(sc, widx, now)
				issued = true
				// The LRR pointer restarts after the issuer.
				sc.rotate = slot + 1
				if sc.rotate >= n {
					sc.rotate = 0
				}
				s.setGateAt(sc, slot, &s.warps[widx])
				wake = sc.gates[slot]
			}
		}
		if wake < bound {
			bound = wake
		}
		if issued && bound <= now+1 {
			// Early out: this scheduler has issued and its cursor is
			// already pinned at (or below) the next cycle, so it
			// rescans then no matter when the remaining warps wake.
			// The throttled flag only matters for schedulers whose
			// cursor lets them sleep — which an early-out cursor
			// never does.
			break
		}
		if slot++; slot >= n {
			slot = 0
		}
	}
	sc.throttled = throttled
	if issued {
		sc.issuedNow = true
		s.lastProgress = now
	}
	if s.wakeSeq != seq {
		// An issue released a barrier or rotated a block; wake cycles
		// gathered before that are stale. Rescan next cycle.
		sc.nextReady = 0
	} else {
		sc.nextReady = bound
	}
}

// scanStep is the cycle stepper's scheduler pass, kept as the oracle:
// no gates, no cursor — every warp is re-evaluated from its raw state
// every cycle, in LRR order, until one issues.
func (s *sm) scanStep(sc *scheduler, now int64) {
	n := len(sc.warps)
	for i := 0; i < n; i++ {
		slot := sc.rotate + i
		if slot >= n {
			slot -= n
		}
		widx := sc.warps[slot]
		if ok, _ := s.ready(sc, &s.warps[widx], now); ok {
			s.issue(sc, widx, now)
			sc.issuedNow = true
			s.lastProgress = now
			sc.rotate = slot + 1
			if sc.rotate >= n {
				sc.rotate = 0
			}
			return
		}
	}
}
