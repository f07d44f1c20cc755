package gpusim

import "fmt"

// WarpCtx identifies a warp executing under a workload: which SM hosts
// it, which grid block it belongs to, and its position within the block.
type WarpCtx struct {
	SM          int
	Block       int // global block index within the grid
	WarpInBlock int
	GlobalWarp  int // Block*warpsPerBlock + WarpInBlock
}

// Workload supplies the data-dependent behaviour the simulator cannot
// derive from the binary alone: branch outcomes (loop trip counts,
// divergent conditionals), memory latency variation, and per-access
// transaction counts (coalescing).
type Workload interface {
	// Taken reports the direction of the conditional branch at flat
	// instruction index pc on its visit-th dynamic execution by a warp.
	Taken(w WarpCtx, pc int, visit int) bool
	// Latency returns a latency override in cycles for the
	// variable-latency instruction at pc (0 means "use the default
	// model"). Like the default model's jitter it is one value per
	// (warp, pc) for the whole run, not per execution.
	Latency(w WarpCtx, pc int) int
	// Transactions returns how many memory transactions the memory
	// instruction at pc issues per warp (0 means 1, i.e. fully
	// coalesced).
	Transactions(pc int) int
}

// TripFunc yields a loop trip count for a warp.
type TripFunc func(w WarpCtx) int

// UniformTrips returns a TripFunc with the same trip count for every
// warp.
func UniformTrips(n int) TripFunc { return func(WarpCtx) int { return n } }

// Site names an instruction by function and label, the form kernel
// definitions use before label tables are erased by binary packing.
type Site struct {
	Func  string
	Label string
}

// Spec is a declarative workload: trip counts for backward branches
// and transaction counts for memory instructions, keyed by labelled
// sites. Bind resolves it against a loaded program. Every conditional
// branch without a trip count is not taken, and every latency is the
// default model's; a behaviour beyond that is a Workload of its own.
type Spec struct {
	// Trips: the labelled conditional branch loops; a warp takes the
	// branch Trips(w) times per loop entry, then falls through.
	Trips map[Site]TripFunc
	// Transactions: per-site transaction counts (coalescing model).
	Transactions map[Site]int
}

// Bind resolves the spec's labelled sites to flat instruction indices.
func (s *Spec) Bind(p *Program) (Workload, error) {
	b := &boundWorkload{trips: make([]TripFunc, len(p.Instrs)), trans: make([]int, len(p.Instrs))}
	resolve := func(site Site) (int, error) {
		idx, err := p.FlatIndex(site.Func, site.Label)
		if err != nil {
			return 0, fmt.Errorf("gpusim: workload site %v: %w", site, err)
		}
		return idx, nil
	}
	for site, fn := range s.Trips {
		idx, err := resolve(site)
		if err != nil {
			return nil, err
		}
		b.trips[idx] = fn
	}
	for site, n := range s.Transactions {
		idx, err := resolve(site)
		if err != nil {
			return nil, err
		}
		b.trans[idx] = n
	}
	return b, nil
}

// boundWorkload is a Spec resolved against one program: both tables
// are indexed by flat PC (nil / 0 where the spec has no entry), because
// the simulator asks on every branch and memory issue. A PC beyond the
// tables — the workload run against a longer program than it was bound
// to — answers as an unlisted site.
type boundWorkload struct {
	trips []TripFunc
	trans []int
}

// trip returns the trip count of the loop branch at pc: 0, never
// taken, for an unlisted site.
func (b *boundWorkload) trip(w WarpCtx, pc int) int {
	if pc >= len(b.trips) || b.trips[pc] == nil {
		return 0
	}
	return b.trips[pc](w)
}

func (b *boundWorkload) Taken(w WarpCtx, pc, visit int) bool {
	n := b.trip(w, pc)
	if n <= 0 {
		return false
	}
	// Cycle of n taken visits followed by one fall-through, so
	// re-entered loops (nests) iterate again.
	return visit%(n+1) != n
}

// TakenRun implements TakenStability. Trip-count sites are the pure
// cycle visit%(n+1) != n and admit a closed-form answer; unlisted sites
// are never taken.
func (b *boundWorkload) TakenRun(w WarpCtx, pc, visit, stride int, want bool, limit int64) int64 {
	if limit <= 0 {
		return 0
	}
	n := b.trip(w, pc)
	if n <= 0 {
		// Never taken: every visit yields false.
		if !want {
			return limit
		}
		return 0
	}
	// Outcome of visit v is (v mod m != n) with m = n+1; successive
	// probes sit at v = visit + j·stride. Count leading j with the
	// wanted outcome.
	m := int64(n) + 1
	a := ((int64(visit) % m) + m) % m
	s := ((int64(stride) % m) + m) % m
	if !want {
		// want the single residue a == n.
		if a != int64(n) {
			return 0
		}
		if s == 0 {
			return limit
		}
		return 1
	}
	// want any residue != n: find the first j with a + j·s ≡ n (mod m).
	d := ((int64(n)-a)%m + m) % m
	if d == 0 {
		return 0
	}
	if s == 0 {
		return limit
	}
	g := gcd64(s, m)
	if d%g != 0 {
		return limit
	}
	mg := m / g
	j0 := (d / g % mg) * modInv64(s/g%mg, mg) % mg
	return min(j0, limit)
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// modInv64 returns the multiplicative inverse of a modulo m; the caller
// guarantees gcd(a, m) == 1.
func modInv64(a, m int64) int64 {
	if m == 1 {
		return 0
	}
	// Extended Euclid.
	r0, r1 := m, ((a%m)+m)%m
	t0, t1 := int64(0), int64(1)
	for r1 != 0 {
		q := r0 / r1
		r0, r1 = r1, r0-q*r1
		t0, t1 = t1, t0-q*t1
	}
	return ((t0 % m) + m) % m
}

// Latency always defers to the default model.
func (b *boundWorkload) Latency(WarpCtx, int) int { return 0 }

func (b *boundWorkload) Transactions(pc int) int {
	if pc < len(b.trans) {
		return b.trans[pc]
	}
	return 0
}

// NopWorkload is the zero workload: no branch taken, default latencies,
// coalesced accesses.
type NopWorkload struct{}

// Taken always reports false.
func (NopWorkload) Taken(WarpCtx, int, int) bool { return false }

// TakenRun implements TakenStability: every outcome is false.
func (NopWorkload) TakenRun(_ WarpCtx, _, _, _ int, want bool, limit int64) int64 {
	if want {
		return 0
	}
	return max(limit, 0)
}

// Latency always defers to the default model.
func (NopWorkload) Latency(WarpCtx, int) int { return 0 }

// Transactions always reports fully coalesced accesses.
func (NopWorkload) Transactions(int) int { return 0 }
