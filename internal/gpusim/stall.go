package gpusim

// StallReason is the CUPTI-style reason attached to a PC sample: why the
// sampled warp could not issue at the sample instant. The taxonomy
// follows the reasons GPA consumes (Sections 2.1 and 4 of the paper).
type StallReason uint8

// Stall reasons.
const (
	// ReasonNone: the sampled warp issued an instruction ("selected").
	ReasonNone StallReason = iota
	// ReasonInstructionFetch: the next instruction has not arrived from
	// the instruction cache.
	ReasonInstructionFetch
	// ReasonExecutionDependency: waiting on a register produced by a
	// fixed-latency instruction, a shared-memory load, or a WAR hazard
	// tracked through a read barrier.
	ReasonExecutionDependency
	// ReasonMemoryDependency: waiting on a value loaded from global,
	// local, or constant memory.
	ReasonMemoryDependency
	// ReasonSync: waiting at a BAR.SYNC (or other synchronization).
	ReasonSync
	// ReasonMemoryThrottle: a memory instruction cannot issue because
	// the memory queue (MSHRs) is full.
	ReasonMemoryThrottle
	// ReasonPipeBusy: the target functional unit is still busy with a
	// previous instruction.
	ReasonPipeBusy
	// ReasonNotSelected: the warp was ready but the scheduler issued
	// another warp.
	ReasonNotSelected
	// ReasonOther: miscellaneous (e.g. branch resolution).
	ReasonOther
	// ReasonIdle: the scheduler had no resident warp to sample.
	ReasonIdle

	NumReasons
)

var reasonNames = [NumReasons]string{
	ReasonNone:                "selected",
	ReasonInstructionFetch:    "instruction_fetch",
	ReasonExecutionDependency: "execution_dependency",
	ReasonMemoryDependency:    "memory_dependency",
	ReasonSync:                "synchronization",
	ReasonMemoryThrottle:      "memory_throttle",
	ReasonPipeBusy:            "pipe_busy",
	ReasonNotSelected:         "not_selected",
	ReasonOther:               "other",
	ReasonIdle:                "idle",
}

// String names the reason in CUPTI-report style.
func (r StallReason) String() string {
	if r < NumReasons {
		return reasonNames[r]
	}
	return "unknown"
}

// IsDependency reports whether the reason is one of the three classes
// whose stalls are caused by a source instruction rather than the
// stalled instruction itself (memory dependency, execution dependency,
// synchronization) — the classes GPA's instruction blamer attributes
// backwards (Section 4).
func (r StallReason) IsDependency() bool {
	switch r {
	case ReasonMemoryDependency, ReasonExecutionDependency, ReasonSync:
		return true
	}
	return false
}

// Sample is one PC sample as the hardware records it: which SM, warp
// scheduler, and warp were sampled, the sampled warp's current PC (flat
// instruction index), whether the scheduler issued an instruction that
// cycle (active vs latency sample), and the sampled warp's stall reason
// (ReasonNone if it was the warp that issued).
type Sample struct {
	SM        int
	Scheduler int
	Warp      int
	Cycle     int64
	PC        int
	Active    bool
	Reason    StallReason
}

// SampleSink receives samples as SMs record them; the sampling package
// provides implementations that mimic CUPTI's per-SM buffers.
//
// Contract for a plain SampleSink (an ordered sink): Record is always
// invoked from a single goroutine, with samples in SM order (all of
// SM 0's stream, then SM 1's, ...): Run simulates the SMs of a run into
// an ordered sink on one worker, one after another, whatever
// Config.Parallelism asks for, so the sink observes the same call
// sequence at every level and needs no locking. A sink whose result
// does not depend on that order should implement ShardedSink instead,
// and the run's SMs fan out.
type SampleSink interface {
	Record(Sample)
}

// ShardedSink is a SampleSink that hands out one private sink per SM.
// Run calls Shard once per simulated SM id, serially, before any SM
// starts; each SM then records straight into its own shard — from
// whichever goroutine simulates it — and the sink's own Record is never
// called. A shard sees exactly its
// SM's stream in order, so anything the owner computes per shard and
// combines order-free (sums, counts) is identical at every parallelism
// level. Shards must not share mutable state: at Parallelism > 1
// different shards record concurrently.
type ShardedSink interface {
	SampleSink
	Shard(sm int) SampleSink
}
