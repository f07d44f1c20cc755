// Package sampling implements the PC-sampling collection layer GPA's
// profiler uses, mirroring CUPTI's behaviour (Section 2.1 of the paper):
// each SM collects samples into its own fixed-size buffer, and when any
// SM's buffer fills, samples from all SMs are merged and transferred to
// the host. The package also aggregates raw samples into the per-PC
// counters (total / active / latency samples and per-reason stalls) that
// the dynamic analyzer consumes.
//
// In the Figure 2 pipeline this sits between the simulator and the
// profiler: input is the simulator's gpusim.Sample stream (identical at
// every parallelism level and on every registered architecture), output
// the Aggregate the profiler serializes. The sample counts here are the
// T, A, and L quantities of Equations 2-5. Two sinks produce them:
// Buffer models CUPTI's buffers sample by sample and needs the stream
// in SM order; Counter keeps only the per-SM counters and a sample
// count, which is all the analysis reads, and takes the SMs in any
// order — the profiler collects through it.
//
// Buffer, Drain and AggregateSamples are the stream oracle: tests
// compare Counter against them and bench/'s layers pass prices them,
// but no served path reaches them — everything gpad, gpa.Engine and the
// direct API collect goes through Counter.
package sampling

import (
	"gpa/internal/gpusim"
)

// DefaultBufferCap is the default per-SM sample-buffer capacity.
const DefaultBufferCap = 2048

// Buffer is a gpusim.SampleSink with CUPTI-like per-SM buffering. It is
// an ordered sink: fed from a single goroutine, in SM order (the
// simulator runs a run's SMs into it on one worker), so it needs no
// locking.
type Buffer struct {
	cap     int
	perSM   [][]gpusim.Sample // indexed by SM id, grown on demand
	host    []gpusim.Sample
	Flushes int // number of full-buffer merge events
}

// NewBuffer returns a buffer with the given per-SM capacity (0 uses
// DefaultBufferCap).
func NewBuffer(capPerSM int) *Buffer {
	if capPerSM <= 0 {
		capPerSM = DefaultBufferCap
	}
	return &Buffer{cap: capPerSM}
}

// Record appends a sample to its SM's buffer, flushing all SMs to the
// host when the buffer fills.
func (b *Buffer) Record(s gpusim.Sample) {
	for s.SM >= len(b.perSM) {
		b.perSM = append(b.perSM, nil)
	}
	buf := append(b.perSM[s.SM], s)
	b.perSM[s.SM] = buf
	if len(buf) >= b.cap {
		b.flush()
	}
}

func (b *Buffer) flush() {
	b.Flushes++
	for sm := range b.perSM {
		b.host = append(b.host, b.perSM[sm]...)
		b.perSM[sm] = b.perSM[sm][:0]
	}
}

// Drain flushes any residual samples and returns everything collected.
func (b *Buffer) Drain() []gpusim.Sample {
	b.flush()
	b.Flushes-- // the final drain is not a full-buffer event
	return b.host
}

// Counter is the order-free sink: a gpusim.ShardedSink that counts
// samples instead of keeping them. Each SM records into a shard of its
// own — a per-SM Aggregate plus a sample count — and Merge sums the
// shards after the run. A sum needs no order, so the SMs may run
// concurrently with nothing buffered, and the merged counters equal
// what Buffer → Drain → AggregateSamples gives for the same streams.
type Counter struct {
	cap    int
	numPCs int
	shards []*counterShard // indexed by SM id, grown on demand
	merged Aggregate
}

// counterShard is one SM's counters. samples counts every sample the SM
// recorded, out-of-range PCs included, as a CUPTI buffer would hold it.
type counterShard struct {
	live    bool
	agg     Aggregate
	samples int
}

func (s *counterShard) Record(smp gpusim.Sample) {
	s.samples++
	s.agg.add(smp)
}

// Reset readies the counter for a run over a program with numPCs flat
// instructions at the given per-SM buffer capacity (0 uses
// DefaultBufferCap), keeping every shard's backing array.
func (c *Counter) Reset(capPerSM, numPCs int) {
	if capPerSM <= 0 {
		capPerSM = DefaultBufferCap
	}
	c.cap, c.numPCs = capPerSM, numPCs
	for _, s := range c.shards {
		s.live = false
	}
}

// Shard returns SM sm's private sink, cleared on its first use since
// Reset. Calls must not overlap (gpusim.Run makes them serially, before
// any SM starts); the shards themselves may then record concurrently.
func (c *Counter) Shard(sm int) gpusim.SampleSink {
	for sm >= len(c.shards) {
		c.shards = append(c.shards, &counterShard{})
	}
	s := c.shards[sm]
	if !s.live {
		s.live, s.samples = true, 0
		s.agg.Reset(c.numPCs)
	}
	return s
}

// Record routes a sample to its SM's shard, for callers that feed a
// Counter as a plain single-goroutine sink.
func (c *Counter) Record(s gpusim.Sample) { c.Shard(s.SM).Record(s) }

// Merge sums the shards used since Reset and returns the whole-kernel
// aggregate (valid until the next Reset) with the number of full-buffer
// flush events Buffer would have reported for the same run: Σ over SMs
// of ⌊samples ÷ cap⌋. In the SM-ordered stream a buffer only ever fills
// while its own SM is recording, and every flush empties it, so each SM
// fills its buffer once per cap samples whatever the other SMs left
// behind.
func (c *Counter) Merge() (agg *Aggregate, flushes int) {
	c.merged.Reset(c.numPCs)
	for _, s := range c.shards {
		if s.live {
			c.merged.sum(&s.agg)
			flushes += s.samples / c.cap
		}
	}
	return &c.merged, flushes
}

// PCStats aggregates the samples that landed on one PC.
type PCStats struct {
	// Total counts all samples at this PC.
	Total int64
	// Active counts samples whose scheduler issued that cycle AND whose
	// sampled warp was the issuer ("selected"): the paper's issued
	// samples, used by the blamer's issue-ratio heuristic.
	Active int64
	// Latency counts samples taken while the scheduler issued nothing.
	Latency int64
	// Stalls[r] counts samples carrying stall reason r (active or not):
	// the paper's stall samples.
	Stalls [gpusim.NumReasons]int64
	// LatencyStalls[r] counts latency samples carrying reason r; the
	// latency-hiding estimators consume these.
	LatencyStalls [gpusim.NumReasons]int64
}

// Aggregate is the whole-kernel sample summary.
type Aggregate struct {
	// PerPC is indexed by flat instruction index.
	PerPC []PCStats
	// Totals over all samples.
	Total, Active, Latency int64
	// Stalls[r] counts all samples with reason r.
	Stalls [gpusim.NumReasons]int64
	// LatencyStalls[r] restricts to latency samples.
	LatencyStalls [gpusim.NumReasons]int64
}

// IssueRatio returns RI, the per-warp issue-readiness ratio Equations 8
// and 9 of the paper consume: the fraction of sampled warps that were
// able to issue (they issued, or were ready but another warp was
// selected). Equation 8 ("a warp scheduler is issuing if at least one
// warp on the scheduler is ready") requires exactly this per-warp
// readiness probability.
func (a *Aggregate) IssueRatio() float64 {
	if a.Total == 0 {
		return 0
	}
	ready := a.Total - a.stallSampleCount() + a.Stalls[gpusim.ReasonNotSelected]
	return float64(ready) / float64(a.Total)
}

func (a *Aggregate) stallSampleCount() int64 {
	var t int64
	for r := gpusim.StallReason(1); r < gpusim.NumReasons; r++ {
		t += a.Stalls[r]
	}
	return t
}

// Reset clears the aggregate for reuse over a program with numPCs flat
// instructions, keeping the PerPC backing array when it is large
// enough.
func (a *Aggregate) Reset(numPCs int) {
	perPC := a.PerPC
	if cap(perPC) < numPCs {
		perPC = make([]PCStats, numPCs)
	} else {
		perPC = perPC[:numPCs]
		clear(perPC)
	}
	*a = Aggregate{PerPC: perPC}
}

// Aggregate folds raw samples into per-PC counters; numPCs is the flat
// program length.
func AggregateSamples(samples []gpusim.Sample, numPCs int) *Aggregate {
	a := &Aggregate{}
	AggregateSamplesInto(a, samples, numPCs)
	return a
}

// AggregateSamplesInto is AggregateSamples into a reusable aggregate
// (reset first), for callers that recycle their scratch state.
func AggregateSamplesInto(a *Aggregate, samples []gpusim.Sample, numPCs int) {
	a.Reset(numPCs)
	for _, s := range samples {
		a.add(s)
	}
}

// add counts one sample; PCs outside the program are dropped.
func (a *Aggregate) add(s gpusim.Sample) {
	if s.PC < 0 || s.PC >= len(a.PerPC) {
		return
	}
	st := &a.PerPC[s.PC]
	st.Total++
	a.Total++
	if s.Active {
		a.Active++
	} else {
		a.Latency++
		st.Latency++
	}
	if s.Reason == gpusim.ReasonNone {
		st.Active++
	} else {
		st.Stalls[s.Reason]++
		a.Stalls[s.Reason]++
		if !s.Active {
			st.LatencyStalls[s.Reason]++
			a.LatencyStalls[s.Reason]++
		}
	}
}

// sum adds b's counters into a; both cover the same program.
func (a *Aggregate) sum(b *Aggregate) {
	a.Total += b.Total
	a.Active += b.Active
	a.Latency += b.Latency
	for r := range a.Stalls {
		a.Stalls[r] += b.Stalls[r]
		a.LatencyStalls[r] += b.LatencyStalls[r]
	}
	for pc := range b.PerPC {
		src := &b.PerPC[pc]
		if src.Total == 0 {
			continue
		}
		dst := &a.PerPC[pc]
		dst.Total += src.Total
		dst.Active += src.Active
		dst.Latency += src.Latency
		for r := range dst.Stalls {
			dst.Stalls[r] += src.Stalls[r]
			dst.LatencyStalls[r] += src.LatencyStalls[r]
		}
	}
}
