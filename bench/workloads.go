package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"time"

	"gpa"
	"gpa/internal/kernels"
)

// reqKind says what a response must look like (see check.go).
type reqKind uint8

const (
	// kindPinned is a bundled row at the default seed: DRIFT.txt pins
	// its cycles and profile digest.
	kindPinned reqKind = iota
	// kindLearned must equal the first response to the same body (the
	// populate or warm-up pass) in cycles, profileDigest and report.
	kindLearned
	// kindColdAdvise never repeats; a sample is re-derived through the
	// library after the slice.
	kindColdAdvise
	kindColdProfile
	kindBatch
	kindSweep
)

// request is one generated HTTP request. gpad only ever sees path,
// tenant and body; the rest is the benchmark's bookkeeping.
type request struct {
	kind   reqKind
	path   string
	tenant string
	body   []byte
	// row indexes corpus.rows for bundled-row requests (-1 otherwise).
	row int
	// slot indexes workload.learned for kindLearned.
	slot int
	// seed is the simulator seed the body carries (cold kinds).
	seed uint64
	// entries is how many results a batch or sweep response must hold,
	// and pinnedRows lists the batch entries DRIFT.txt pins (entry -> row).
	entries    int
	pinnedRows map[int]int
}

// kernelBody mirrors the wire fields of gpad's kernel request that the
// benchmark sets; it is the only place the request schema is spelled.
type kernelBody struct {
	Bench             string  `json:"bench,omitempty"`
	Asm               string  `json:"asm,omitempty"`
	Entry             string  `json:"entry,omitempty"`
	GridX             int     `json:"gridX,omitempty"`
	GridY             int     `json:"gridY,omitempty"`
	GridZ             int     `json:"gridZ,omitempty"`
	BlockX            int     `json:"blockX,omitempty"`
	BlockY            int     `json:"blockY,omitempty"`
	BlockZ            int     `json:"blockZ,omitempty"`
	RegsPerThread     int     `json:"regsPerThread,omitempty"`
	SharedMemPerBlock int     `json:"sharedMemPerBlock,omitempty"`
	Kind              string  `json:"kind,omitempty"`
	SimSMs            int     `json:"simSMs,omitempty"`
	Seed              *uint64 `json:"seed,omitempty"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of strings and ints are marshalled
	}
	return b
}

// corpus is the fixed material every workload draws from: the 26
// Table 3 rows and their 52 Base/Opt kernel variants.
type corpus struct {
	rows []*kernels.Benchmark
	// variants lists Base then Opt of every row, in row order.
	variants []*kernels.Variant
}

func loadCorpus() *corpus {
	c := &corpus{rows: kernels.All()}
	for _, b := range c.rows {
		c.variants = append(c.variants, &b.Base, &b.Opt)
	}
	return c
}

func asmBody(v *kernels.Variant) kernelBody {
	l := v.Launch
	return kernelBody{
		Asm: v.Asm, Entry: l.Entry,
		GridX: l.GridX, GridY: l.GridY, GridZ: l.GridZ,
		BlockX: l.BlockX, BlockY: l.BlockY, BlockZ: l.BlockZ,
		RegsPerThread: l.RegsPerThread, SharedMemPerBlock: l.SharedMemPerBlock,
		SimSMs: 1,
	}
}

// Load shape shared by every workload, sized for a 2-core box.
const (
	// clients is the number of keep-alive connections (and closed-loop
	// clients); never more than nproc, so the generator cannot starve
	// the program of a core.
	clients = 2
	// workers is gpad's -workers.
	workers = 2
	// mixedRate is mixed_open's fixed arrival rate in requests/second:
	// with mixedSlots, about 16 simulations/s, a fifth of what two
	// workers sustain.
	mixedRate = 40
	// mixedQueue is mixed_open's -max-queue.
	mixedQueue = 64
	// Passes over the 26 rows (52 variants for warm_asm) per work window
	// of the closed loops: about 150 ms of warm requests and 300 ms of
	// cold ones on this box — a hundred requests or more where one takes
	// a millisecond, one per row where it takes twenty, and short enough
	// that the box does not drift between a work window and the reference
	// windows around it.
	warmBenchPasses = 16
	warmAsmPasses   = 5
	coldPasses      = 1
	diskPasses      = 6
	// diskSeeds x 26 rows = 546 distinct requests: more than the
	// 512-entry result and stage LRUs, so cyclic access never hits
	// memory.
	diskSeeds = 21
	// cyclesWindow is how many leading requests of a slice feed
	// gpusim.sim_cycles_per_req; every workload completes that many in
	// its shortest slice, so the mean is an exact-repeat count.
	cyclesWindow = 104
)

// expectation is what the first response to a body looked like.
type expectation struct {
	set        bool
	cycles     int64
	digest     string
	reportHash uint64
}

// workload is one traffic mix: its fixture, its request sequence, and
// the counter invariants a slice of it must satisfy.
type workload struct {
	name string
	why  string
	// rate > 0 makes the loop open: arrivals are due every 1/rate
	// seconds and latency counts from the due time. 0 is a closed loop
	// of `clients` callers that each wait for their reply.
	rate     float64
	maxQueue int
	// perWindow is how many requests one work window of the timed slice
	// holds (client.go: work and reference windows alternate): whole
	// passes over the rows in a closed loop, one pass over the mix — a
	// burst of arrivals — in an open one. Every window of a workload so
	// does the same work, whatever order the seed put it in.
	perWindow int
	// populate is sent through a throwaway gpad into the store
	// directory before the measured gpad starts (disk_warm only).
	populate []request
	// warmup is sent once after gpad is ready, before the timed slice.
	warmup []request
	// at returns the i-th request of the timed slice: a pure function of
	// (seed, i), so every round and every run of one seed sends the same
	// sequence.
	at func(i int) request
	// learned holds one expectation per kindLearned slot.
	learned []expectation
	// wantSimsPerReq is the exact simulations-per-request a slice must
	// show (-1 = not asserted); wantNoPuts asserts the store is only
	// read.
	wantSimsPerReq float64
	wantNoPuts     bool
}

// mixedSlots is mixed_open's mix per 20 arrivals, sent in a seeded
// order. Three quarters are warm so that the median latency sits in the
// middle of the warm mode: with 12 warm of 20 it sat at the mode's 90th
// percentile, on the shoulder of the cliff up to the cold mode (p50
// 1.1 ms, p60 6 ms), and one commit spread by 26% between runs.
var mixedSlots = []struct {
	kind  reqKind
	count int
}{{kindPinned, 15}, {kindColdAdvise, 2}, {kindColdProfile, 1}, {kindBatch, 1}, {kindSweep, 1}}

var workloadNames = []string{"warm_bench", "warm_asm", "cold_bench", "disk_warm", "mixed_open"}

var workloadWhy = map[string]string{
	"warm_bench": "closed loop over the 26 Table 3 rows, every request a result-cache hit: prices the gpad/gpa wire path (decode, digest, render, indented encode, socket) with gpusim idle",
	"warm_asm":   "same loop with raw SASS bodies of the 52 kernel variants: results are cached but every request re-assembles, packs, hashes and loads, the kernel-build cost bundled rows memoize away",
	"cold_bench": "closed loop where no request repeats and the store starts empty: simulate-dominated, and the write side of the disk store",
	"disk_warm":  "546 requests cycled over a pre-populated store by a fresh gpad: working set larger than the 512-entry LRUs, so every response is assembled from disk blobs",
	"mixed_open": "open loop at a fixed 40 req/s mixing warm and cold advise, profile, batch and sweep across two tenants: the only workload crossing qos lanes, singleflight, fan-out and the large profile encode",
}

// newWorkload generates the named workload from the seed. The seed
// fixes the row order, the fresh-seed sequence and mixed_open's slot
// order; two calls with one seed produce byte-identical requests.
func newWorkload(c *corpus, name string, seed uint64) (*workload, error) {
	rng := rand.New(rand.NewPCG(seed, 0x6770612d62656e63))
	order := rng.Perm(len(c.rows))
	// s0 starts the fresh-seed sequence; kept below 2^40 so bodies stay
	// readable and far from the pinned default seed 11.
	s0 := 1<<20 + rng.Uint64N(1<<39)
	n := len(c.rows)

	// benchRow is the body for corpus row `row`; bench takes the i-th row
	// in the seed's order.
	benchRow := func(row, simSMs int, seed *uint64, kind string) kernelBody {
		return kernelBody{Bench: c.rows[row].ID(), SimSMs: simSMs, Seed: seed, Kind: kind}
	}
	bench := func(i, simSMs int, seed *uint64, kind string) kernelBody {
		return benchRow(order[i%n], simSMs, seed, kind)
	}
	pinned := make([]request, n)
	for i := range pinned {
		pinned[i] = request{kind: kindPinned, path: "/v1/advise", row: order[i],
			body: mustJSON(bench(i, 4, nil, ""))}
	}
	cold := func(i int, seed uint64) request {
		return request{kind: kindColdAdvise, path: "/v1/advise", row: order[i%n], seed: seed,
			body: mustJSON(bench(i, 4, &seed, ""))}
	}
	// coldPass is the warm-up of the workloads that simulate during the
	// slice: one pass over the rows at a seed the slice never uses, so
	// kernel builds, pools and lazy set-up are paid before timing.
	coldPass := make([]request, n)
	for i := range coldPass {
		coldPass[i] = cold(i, s0-1)
	}

	w := &workload{name: name, why: workloadWhy[name], wantSimsPerReq: -1}
	switch name {
	case "warm_bench":
		w.warmup = pinned
		w.perWindow = warmBenchPasses * n
		w.at = func(i int) request { return pinned[i%n] }
		w.wantSimsPerReq = 0

	case "warm_asm":
		reqs := make([]request, len(c.variants))
		for i := range reqs {
			v := c.variants[2*order[i/2]+i%2]
			reqs[i] = request{kind: kindLearned, path: "/v1/advise", row: -1, slot: i,
				body: mustJSON(asmBody(v))}
		}
		w.learned = make([]expectation, len(reqs))
		w.warmup = reqs
		w.perWindow = warmAsmPasses * len(reqs)
		w.at = func(i int) request { return reqs[i%len(reqs)] }
		w.wantSimsPerReq = 0

	case "cold_bench":
		w.warmup = coldPass
		w.perWindow = coldPasses * n
		w.at = func(i int) request { return cold(i, s0+uint64(i/n)) }
		w.wantSimsPerReq = 1

	case "disk_warm":
		reqs := make([]request, n*diskSeeds)
		for i := range reqs {
			seed := s0 + uint64(i/n)
			reqs[i] = request{kind: kindLearned, path: "/v1/advise", row: order[i%n], slot: i, seed: seed,
				body: mustJSON(bench(i, 1, &seed, ""))}
		}
		w.learned = make([]expectation, len(reqs))
		w.populate = reqs
		// The warm-up touches one request per row, so kernel builds and
		// the front-end memo are paid — the LAST n of the cycle, not the
		// first: the slice then starts on requests that are on disk only,
		// and by the time it reaches the warmed ones the LRUs have evicted
		// them, so no request of the slice is ever a memory hit.
		w.warmup = reqs[len(reqs)-n:]
		w.perWindow = diskPasses * n
		w.at = func(i int) request { return reqs[i%len(reqs)] }
		w.wantSimsPerReq = 0
		w.wantNoPuts = true

	case "mixed_open":
		w.rate = mixedRate
		w.maxQueue = mixedQueue
		w.warmup = append(append([]request(nil), pinned...), coldPass...)
		var slots []reqKind
		for _, m := range mixedSlots {
			for j := 0; j < m.count; j++ {
				slots = append(slots, m.kind)
			}
		}
		rng.Shuffle(len(slots), func(a, b int) { slots[a], slots[b] = slots[b], slots[a] })
		// One work window is one pass over the mix: every burst sends the
		// same kinds.
		w.perWindow = len(slots)
		// The cold operations take their rows in corpus order, not in the
		// seed's: burst b simulates rows 6b..6b+5 — the sweep, the batch's
		// two cold entries, the two cold advises, the profile — whatever
		// the seed. A row costs between 12k and 187k simulated cycles and a
		// sweep simulates it on every architecture, so with seeded rows the
		// mean latency of a burst was set by the rows the seed happened to
		// put under the eight sweeps of a slice, and runs of one commit
		// with ten seeds spread by 17%. The seed still decides the order
		// of the kinds within a burst, the warm rows and every simulator
		// seed.
		const coldOps = 6
		first := map[reqKind]int{kindSweep: 0, kindBatch: 1, kindColdAdvise: 3, kindColdProfile: 5}
		ordinal := make([]int, len(slots))
		for p, kind := range slots {
			ordinal[p] = first[kind]
			first[kind]++
		}
		coldRow := func(i, op int) int { return (coldOps*(i/len(slots)) + ordinal[i%len(slots)] + op) % n }
		archs := len(gpa.GPUs())
		w.at = func(i int) request {
			// Each arrival owns two fresh seeds, so no cold body repeats.
			s1, s2 := s0+2*uint64(i), s0+2*uint64(i)+1
			row := coldRow(i, 0)
			var r request
			switch kind := slots[i%len(slots)]; kind {
			case kindPinned:
				r = pinned[i%n]
			case kindColdAdvise:
				r = request{kind: kindColdAdvise, path: "/v1/advise", row: row, seed: s1,
					body: mustJSON(benchRow(row, 4, &s1, ""))}
			case kindColdProfile:
				r = request{kind: kindColdProfile, path: "/v1/profile", row: row, seed: s1,
					body: mustJSON(benchRow(row, 4, &s1, ""))}
			case kindBatch:
				r = request{kind: kindBatch, path: "/v1/batch", row: -1, entries: 4,
					pinnedRows: map[int]int{0: order[i%n], 1: order[(i+1)%n]},
					body: mustJSON(map[string]any{"requests": []kernelBody{
						bench(i, 4, nil, ""), bench(i+1, 4, nil, ""),
						benchRow(row, 4, &s1, "measure"), benchRow(coldRow(i, 1), 4, &s2, "advise"),
					}})}
			case kindSweep:
				r = request{kind: kindSweep, path: "/v1/sweep", row: row, seed: s1, entries: archs,
					body: mustJSON(benchRow(row, 4, &s1, ""))}
			}
			r.tenant = "a"
			if i%4 == 3 {
				r.tenant = "b"
			}
			return r
		}

	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return w, nil
}

// due is when arrival i of an open loop is scheduled, relative to the
// slice start.
func (w *workload) due(i int) time.Duration {
	return time.Duration(float64(i) / w.rate * float64(time.Second))
}
