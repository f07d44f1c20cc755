package gpusim

import "slices"

// Steady-state loop memoization. Most kernels spend the bulk of their
// cycles in a periodic steady state inside their hot loops: every
// scheduler revisits the same relative state once per loop iteration,
// so simulating iteration i+1 re-derives exactly the state of
// iteration i shifted by a constant number of cycles. The memoizer
// detects that recurrence and fast-forwards whole periods analytically:
//
//  1. DETECT. Every time the anchor warp (warp 0, re-elected if it
//     parks) issues a taken backward branch, the run loop snapshots a
//     fingerprint of the SM's behaviorally visible state, encoded
//     RELATIVE to the current cycle (see (*sm).fingerprint). A
//     fingerprint matching the previous anchor's (or, for periods
//     spanning several back-edges, a retained power-of-two anchor à la
//     Brent's algorithm) makes the span a period candidate.
//  2. RECORD. The next candidate period is simulated normally while
//     recording a template: every branch execution (with its Taken
//     outcome), the sparse per-PC issue delta, the instruction-cache
//     lines touched, and — when sampling is on — the observation
//     table: what a sample tick at each cycle of the period would
//     report of each warp. The recording is valid only if
//     the fingerprint at the end matches the start exactly and the
//     period was instruction-cache-miss free (then the untouched LRU
//     stamps are never read in-period and stay out of the fingerprint
//     soundly).
//  3. FAST-FORWARD. At an anchor whose fingerprint matches the
//     template's, k whole periods are skipped at once: the workload is
//     asked (through the TakenStability capability) for how many
//     periods the recorded branch outcomes stay valid, k is capped by
//     MaxCycles, every pending absolute cycle field is shifted by k·P
//     (sentinels and expired gates preserved), visits and issue
//     counters advance by k times the recorded deltas, and the sample
//     ticks inside the span are walked exactly as sampleTick walks
//     them (scheduler round-robin, warp rotation), each reading its
//     sample out of the observation table at its offset into the
//     period — byte-identical to what stepping would have emitted,
//     because the span's state is byte-equivalent by construction.
//
// Sampling is NOT part of the recurrence. A tick reads the SM and moves
// only the sampling unit's own cursors (sm.tick, scheduler.samplePtr),
// which nothing else reads, so where the ticks fall relative to the
// loop is kept out of the fingerprint: a loop period locks whether or
// not the sample period divides it, and the same periods lock with
// sampling on as with it off.
//
// Fall back to normal event-skipped stepping whenever no period is
// found, a recording is invalidated (fingerprint drift, icache miss,
// block rotation or barrier phase change — all of which perturb the
// fingerprint — or an observation table outgrowing maxObservations),
// the workload cannot promise future branch outcomes, or zero whole
// periods fit before the next outcome change. The retained
// cycle stepper (Config.stepEveryCycle) stays the oracle: results and
// sample streams must be bit-identical with memoization on.

// TakenStability is an optional Workload capability that enables
// steady-state fast-forward. Implementations promise that Taken is a
// pure function of (warp, pc, visit) and report how far ahead its
// outcomes are known. Workloads bound from a Spec and the NopWorkload
// implement it; a Workload without it never fast-forwards (stateful
// Taken callbacks stay observably untouched).
type TakenStability interface {
	// TakenRun reports for how many consecutive steps j = 0, 1, 2, ...
	// (up to limit) Taken(w, pc, visit+j*stride) equals want. A
	// negative result means "unknown": the simulator must not assume
	// anything about future outcomes.
	TakenRun(w WarpCtx, pc, visit, stride int, want bool, limit int64) int64
}

// snapshot is one fingerprint: the encoded relative state. Comparison
// is a plain word walk — non-periodic states diverge within the first
// few words (MSHR occupancy, release phases), so an early-exit compare
// beats maintaining a hash on every capture.
type snapshot struct {
	words []int64
}

func (s *snapshot) equal(o *snapshot) bool {
	if len(s.words) != len(o.words) {
		return false
	}
	for i, w := range s.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

func (s *snapshot) copyFrom(o *snapshot) {
	s.words = append(s.words[:0], o.words...)
}

// steadyExec records one dynamic branch execution inside the template
// period. relVisit is the execution's visit counter relative to the
// period start for its (warp, pc) site; stride is how many times that
// site executes per period. probe marks conditional branches whose
// outcome must be re-validated before a fast-forward (unconditional
// branches advance the visit counter but have no outcome to check).
type steadyExec struct {
	widx, pc         int32
	relVisit, stride int32
	outcome, probe   bool
}

// steadyIssued is one entry of the sparse per-period issue-count delta.
type steadyIssued struct {
	pc    int32
	count int32
}

// steadyTouch records an icache line the period touches; relStamp is
// its end-of-period LRU stamp relative to the period-end cycle (≤ 0).
type steadyTouch struct {
	line     int32
	relStamp int64
}

// steadyState is the per-SM detector. It lives on the sm struct and is
// recycled with it: resetSteady keeps every backing array, so a warm
// run detects and fast-forwards without allocating.
type steadyState struct {
	stab    TakenStability // nil disables the memoizer
	enabled bool

	anchorWarp int
	anchorHit  bool // set by issue() on the anchor warp's taken back-edge
	anchorIdx  int64

	// Detection snapshots: the current anchor, the previous anchor
	// (period = 1 back-edge), and a retained power-of-two anchor for
	// longer periods (Brent's cycle-finding: the stored snapshot moves
	// to the current anchor at anchor indices 1, 2, 4, 8, ...).
	cur, prev, brent   snapshot
	prevValid, brentOK bool
	brentIdx, brentPow int64
	// prevNow / brentNow are the cycles the prev and brent snapshots
	// were taken at, so a match knows the candidate period in cycles.
	prevNow, brentNow int64

	// Recording state.
	recording  bool
	recordLeft int64 // anchors until the candidate period closes
	baseNow    int64
	baseMiss   int64
	base       snapshot // fingerprint at the period start
	issuedBase []int64  // issuedPerPC copy at the period start
	icacheBase []int64  // icacheUse copy at the period start
	strideMap  map[int64]int32

	// Template (valid only while valid is set).
	valid       bool
	period      int64 // cycles per period
	execs       []steadyExec
	touches     []steadyTouch
	issuedDelta []steadyIssued
	// obs is the observation table, recorded only while a sink is
	// sampling (observing): row c-baseNow-1 holds, for every warp in
	// index order, what a sample taken at cycle c reports of it (see
	// packObservation). It belongs to the SM shell like every other
	// template slice and never grows past maxObservations entries.
	observing bool
	obs       []uint32

	missCount int64 // icache misses this run (recording validity check)

	// dry counts consecutive anchors with no fingerprint match at all;
	// past steadyGiveUp the detector disables itself for the run —
	// aperiodic kernels (per-warp latency spread keeps warp phases
	// drifting) should not pay the capture cost forever.
	dry int64

	// Counters surfaced through Result.Work.
	detected  int64
	ffCycles  int64
	fallbacks int64
}

// resetSteady reinitializes the detector for a run, keeping every
// backing array so a recycled SM shell detects without allocating.
func resetSteady(st steadyState, wl Workload, off bool) steadyState {
	stab, _ := wl.(TakenStability)
	out := steadyState{
		stab:     stab,
		enabled:  stab != nil && !off,
		brentPow: 1,
		cur:      snapshot{words: st.cur.words[:0]},
		prev:     snapshot{words: st.prev.words[:0]},
		brent:    snapshot{words: st.brent.words[:0]},
		base:     snapshot{words: st.base.words[:0]},

		issuedBase:  st.issuedBase[:0],
		icacheBase:  st.icacheBase[:0],
		strideMap:   st.strideMap,
		execs:       st.execs[:0],
		obs:         st.obs[:0],
		touches:     st.touches[:0],
		issuedDelta: st.issuedDelta[:0],
	}
	return out
}

// reelect moves the anchor to a warp that still takes back-edges after
// the previous anchor warp parked (exited or barrier-blocked), and
// restarts detection from scratch: fingerprints keyed to the old
// anchor's phase are meaningless for the new one.
func (st *steadyState) reelect(widx int) {
	st.anchorWarp = widx
	st.anchorIdx = 0
	st.prevValid, st.brentOK, st.valid = false, false, false
	st.recording, st.observing = false, false
	st.brentIdx, st.brentPow = 0, 1
}

// Fingerprint encodings for cycle-valued fields. Values at or below
// the current cycle are behaviorally spent — every consumer compares
// them against "now" with > — so they all encode as 0; pending values
// encode as their distance from now; the farFuture sentinel keeps a
// code of its own.
const (
	encFar  = int64(-2)
	encIdle = int64(-1) // absent / expired marker for paired fields
)

// steadyGiveUp is how many consecutive matchless anchors the detector
// tolerates before disabling itself for the run.
const steadyGiveUp = 128

// maxObservations bounds the observation table of one SM (entries of 4
// bytes: 256 KB). A candidate period that would outgrow it — period ×
// resident warps too large — is abandoned and the detector stands down
// for the run (see startRecord). 64 K entries cover every Table 3 row
// that locks a period.
const maxObservations = 64 << 10

// obsActive flags an observation taken on a cycle its warp's scheduler
// issued (Sample.Active); the stall reason sits below it, the PC above.
const (
	obsActive  = 1 << 7
	obsPCShift = 8
)

func packObservation(pc int, reason StallReason, active bool) uint32 {
	o := uint32(pc)<<obsPCShift | uint32(reason)
	if active {
		o |= obsActive
	}
	return o
}

func encTime(v, now int64) int64 {
	switch {
	case v == farFuture:
		return encFar
	case v <= now:
		return 0
	}
	return v - now
}

// fingerprint encodes the SM's behaviorally visible state relative to
// cycle now into snap. Two cycles with equal fingerprints are
// behaviorally equivalent: every future scheduling decision, sample,
// and issue depends only on the encoded quantities (plus the visit
// counters, which are deliberately excluded — they advance monotonically
// and are validated separately through TakenStability — and the icache
// LRU stamps, which recordings prove unread by requiring miss-free
// periods). The sampling unit's cursors (sm.tick, samplePtr, the next
// tick's distance) are left out because nothing but the sampling unit
// reads them, and the wake gates because setGate derives them from the
// warp fields encoded below.
func (s *sm) fingerprint(snap *snapshot, now int64) {
	w := snap.words[:0]

	// SM-globals.
	w = append(w,
		int64(s.nextBlock),
		int64(len(s.warps)),
		int64(s.mshrFree),
		encTime(s.minRelease, now),
		encTime(s.fetchBusy, now),
		int64(s.icacheResident),
		int64(len(s.releases)),
	)
	for _, r := range s.releases {
		w = append(w, r.cycle-now, int64(r.count))
	}
	for i := range s.slots {
		bs := &s.slots[i]
		flags := int64(bs.arrived)<<2 | int64(bs.aliveCount)<<10
		if bs.done {
			flags |= 1
		}
		w = append(w, flags)
	}
	// Instruction-cache residency bitvector (stamps excluded; see the
	// miss-free recording rule).
	var bitsAcc int64
	for line, use := range s.icacheUse {
		if use >= 0 {
			bitsAcc |= 1 << (line & 63)
		}
		if line&63 == 63 {
			w = append(w, bitsAcc)
			bitsAcc = 0
		}
	}
	w = append(w, bitsAcc)

	for si := range s.scheds {
		sc := &s.scheds[si]
		flags := int64(sc.rotate) << 1
		if sc.throttled {
			flags |= 1
		}
		w = append(w, flags, encTime(sc.nextReady, now))
		for _, busy := range sc.unitBusy {
			w = append(w, encTime(busy, now))
		}
	}

	for i := range s.warps {
		wp := &s.warps[i]
		if wp.exited {
			w = append(w, encIdle)
			continue
		}
		flags := int64(wp.pc)<<2 | int64(wp.slot)<<32
		if wp.barWait {
			flags |= 1
		}
		w = append(w, flags, int64(wp.ctx.Block), int64(len(wp.callStack)))
		for _, ret := range wp.callStack {
			w = append(w, int64(ret))
		}
		if wp.nextIssue > now {
			w = append(w, wp.nextIssue-now, int64(wp.issueStall))
		} else {
			w = append(w, 0, encIdle)
		}
		w = append(w, encTime(wp.fetchReady, now))
		for b := range wp.barReady {
			if r := wp.barReady[b]; r > now {
				w = append(w, r-now, int64(wp.barReason[b]))
			} else {
				w = append(w, 0, encIdle)
			}
		}
		if wp.lastIssueCycle == now && now > 0 {
			w = append(w, int64(wp.lastIssuedPC))
		} else {
			w = append(w, encIdle)
		}
	}

	snap.words = w
}

// steadyAnchor runs the detector at a loop back-edge of the anchor
// warp: it advances detection, closes recordings, and applies a
// fast-forward when the template matches. It returns the (possibly
// advanced) current cycle and next sample tick.
func (s *sm) steadyAnchor(now, nextTick, maxCycles int64) (int64, int64) {
	st := &s.steady
	st.anchorIdx++
	s.fingerprint(&st.cur, now)

	closing := false
	if st.recording {
		if st.recordLeft--; st.recordLeft <= 0 {
			st.recording, st.observing = false, false
			closing = true
			if st.cur.equal(&st.base) && st.missCount == st.baseMiss {
				s.finalizeTemplate(now)
			} else {
				st.fallbacks++
			}
		}
	}

	if !st.recording {
		if st.valid && st.cur.equal(&st.base) {
			st.dry = 0
			if k := s.steadyK(now, maxCycles); k >= 1 {
				now, nextTick = s.fastForward(now, nextTick, k)
			} else {
				st.fallbacks++
			}
		} else if !closing && st.prevValid && st.cur.equal(&st.prev) {
			st.dry = 0
			s.startRecord(now, 1, now-st.prevNow)
		} else if !closing && st.brentOK && st.anchorIdx > st.brentIdx && st.cur.equal(&st.brent) {
			st.dry = 0
			s.startRecord(now, st.anchorIdx-st.brentIdx, now-st.brentNow)
		} else if st.dry++; st.dry > steadyGiveUp && !st.valid {
			// Nothing has ever matched: this SM's state is drifting, not
			// cycling (typical for latency-bound loops whose per-warp
			// constant latencies differ). Stop paying the capture cost.
			st.enabled = false
		}
	} else {
		st.dry = 0
	}

	// Rotate the detection snapshots. A fast-forward leaves the
	// relative state (hence cur) unchanged, so cur stays the correct
	// previous-anchor snapshot either way.
	st.prev.copyFrom(&st.cur)
	st.prevValid, st.prevNow = true, now
	if st.anchorIdx >= st.brentPow {
		st.brent.copyFrom(&st.cur)
		st.brentIdx, st.brentNow = st.anchorIdx, now
		st.brentOK = true
		st.brentPow *= 2
	}
	return now, nextTick
}

// startRecord begins recording a candidate period of the given length
// in anchor back-edges — cycles long, if the SM really is cycling —
// with its observation table when the run samples. A table that could
// not fit is not started: the candidate is abandoned and the detector
// stands down for the run, so a loop too long to record costs nothing
// per iteration.
func (s *sm) startRecord(now, anchors, cycles int64) {
	st := &s.steady
	st.valid = false
	st.observing = false
	if s.period > 0 {
		need := cycles * int64(len(s.warps))
		if need > maxObservations {
			st.enabled = false
			st.fallbacks++
			return
		}
		st.obs = slices.Grow(st.obs[:0], int(need))
		st.observing = true
	}
	st.recording = true
	st.recordLeft = anchors
	st.baseNow = now
	st.baseMiss = st.missCount
	st.base.copyFrom(&st.cur)
	st.execs = st.execs[:0]
	st.issuedBase = append(st.issuedBase[:0], s.issuedPerPC...)
	st.icacheBase = append(st.icacheBase[:0], s.icacheUse...)
}

// recordObservations appends the observation-table row of cycle c: what
// a sample tick at c would report of every warp, given the state the
// run loop holds when a tick at c fires (after c's issues; issuedNow
// cleared inside a skipped span). The run loop calls it for every cycle
// of a recording, visited or skipped, so row r is cycle baseNow+1+r.
func (s *sm) recordObservations(c int64) {
	st := &s.steady
	if len(st.obs)+len(s.warps) > maxObservations {
		// The SM drifted and the recording ran on past the candidate
		// period startRecord sized it for: abandon, as there.
		st.recording, st.observing, st.enabled = false, false, false
		st.fallbacks++
		return
	}
	n := len(s.scheds)
	for i := range s.warps {
		w := &s.warps[i]
		if w.exited {
			st.obs = append(st.obs, 0) // never sampled
			continue
		}
		sc := &s.scheds[i%n]
		pc, reason := s.observe(sc, w, c)
		st.obs = append(st.obs, packObservation(pc, reason, sc.issuedNow))
	}
}

// finalizeTemplate turns a validated recording into an applicable
// template: per-site visit strides, the sparse issue delta, and the
// touched icache lines with their end-of-period stamps.
func (s *sm) finalizeTemplate(now int64) {
	st := &s.steady
	period := now - st.baseNow
	if s.period > 0 && int64(len(st.obs)) != period*int64(len(s.warps)) {
		// The table must hold exactly one row per cycle of the period.
		st.fallbacks++
		return
	}
	if st.strideMap == nil {
		st.strideMap = make(map[int64]int32, 16)
	}
	clear(st.strideMap)
	for i := range st.execs {
		e := &st.execs[i]
		key := int64(e.widx)<<32 | int64(e.pc)
		e.relVisit = st.strideMap[key]
		st.strideMap[key] = e.relVisit + 1
	}
	for i := range st.execs {
		e := &st.execs[i]
		e.stride = st.strideMap[int64(e.widx)<<32|int64(e.pc)]
	}
	st.issuedDelta = st.issuedDelta[:0]
	for pc, n := range s.issuedPerPC {
		if d := n - st.issuedBase[pc]; d != 0 {
			st.issuedDelta = append(st.issuedDelta, steadyIssued{pc: int32(pc), count: int32(d)})
		}
	}
	st.touches = st.touches[:0]
	for line, use := range s.icacheUse {
		if use != st.icacheBase[line] {
			st.touches = append(st.touches, steadyTouch{line: int32(line), relStamp: use - now})
		}
	}
	st.period = period
	st.valid = true
	st.detected++
}

// steadyK computes how many whole periods can be skipped from the
// current anchor: the minimum over every conditional branch in the
// template of how long the workload promises its recorded outcome,
// capped so the run never overshoots MaxCycles.
func (s *sm) steadyK(now, maxCycles int64) int64 {
	st := &s.steady
	k := (maxCycles - now) / st.period
	if k <= 0 {
		return 0
	}
	for i := range st.execs {
		e := &st.execs[i]
		if !e.probe {
			continue
		}
		w := &s.warps[e.widx]
		visit := int(w.visits[e.pc]) + int(e.relVisit)
		n := st.stab.TakenRun(w.ctx, int(e.pc), visit, int(e.stride), e.outcome, k)
		if n <= 0 {
			return 0
		}
		if n < k {
			k = n
		}
	}
	return k
}

// fastForward skips k whole periods: the sample ticks that fall inside
// the span are emitted from the observation table, cycles advance by
// k·P, pending time gates shift with them (expired gates and the
// farFuture sentinel are preserved — both compare identically at every
// future cycle), visit and issue counters advance by k times the
// recorded deltas, and touched icache stamps land where the final
// period left them.
func (s *sm) fastForward(now, nextTick, k int64) (int64, int64) {
	st := &s.steady
	shift := k * st.period
	newNow := now + shift

	if s.period > 0 {
		// The anchor runs after its own cycle's tick, so the span's
		// ticks are those in (now, newNow]; the one at newNow observes
		// the post-issue state of the last skipped period's final cycle.
		// Each advances the sampling unit as sampleTick does (the set of
		// exited warps cannot change inside a valid period) and reports
		// the warp it lands on from the table row of its offset.
		nw := int64(len(s.warps))
		for ; nextTick <= newNow; nextTick += s.period {
			schedIdx, widx := s.nextSampled()
			if widx < 0 {
				continue
			}
			row := (nextTick - now - 1) % st.period
			o := st.obs[row*nw+int64(widx)]
			s.sink.Record(Sample{
				SM:        s.id,
				Scheduler: schedIdx,
				Warp:      widx,
				Cycle:     nextTick,
				Active:    o&obsActive != 0,
				PC:        int(o >> obsPCShift),
				Reason:    StallReason(o & (obsActive - 1)),
			})
		}
	}

	for i := range s.warps {
		w := &s.warps[i]
		if w.exited {
			continue
		}
		if w.nextIssue > now {
			w.nextIssue += shift
		}
		if w.fetchReady > now {
			w.fetchReady += shift
		}
		for b := range w.barReady {
			if w.barReady[b] > now {
				w.barReady[b] += shift
			}
		}
		if w.lastIssueCycle == now {
			w.lastIssueCycle = newNow
		}
	}
	for si := range s.scheds {
		sc := &s.scheds[si]
		sc.nextReady = shiftTime(sc.nextReady, now, shift)
		for c := range sc.unitBusy {
			if sc.unitBusy[c] > now {
				sc.unitBusy[c] += shift
			}
		}
		for i := range sc.gates {
			sc.gates[i] = shiftTime(sc.gates[i], now, shift)
		}
	}
	for i := range s.releases {
		s.releases[i].cycle += shift
	}
	if s.minRelease < farFuture {
		s.minRelease += shift
	}
	s.fetchBusy = shiftTime(s.fetchBusy, now, shift)
	s.lastProgress = newNow
	for _, t := range st.touches {
		s.icacheUse[t.line] = newNow + t.relStamp
	}
	for i := range st.execs {
		e := &st.execs[i]
		if e.relVisit == 0 {
			s.warps[e.widx].visits[e.pc] += int32(k * int64(e.stride))
		}
	}
	for _, d := range st.issuedDelta {
		s.issuedPerPC[d.pc] += k * int64(d.count)
	}
	st.ffCycles += shift
	return newNow, nextTick
}

// shiftTime shifts a pending cycle value by a fast-forwarded span,
// preserving the farFuture sentinel (it compares above any cycle either
// way) and expired values (spent gates stay spent).
func shiftTime(v, now, shift int64) int64 {
	if v == farFuture || v <= now {
		return v
	}
	return v + shift
}
