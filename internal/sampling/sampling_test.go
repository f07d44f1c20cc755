package sampling

import (
	"math/rand"
	"reflect"
	"testing"

	"gpa/internal/gpusim"
)

func TestBufferFlushMergesAllSMs(t *testing.T) {
	b := NewBuffer(4)
	// Fill SM 0's buffer while SM 1 has two samples; the flush must
	// merge both (CUPTI merges samples from all SMs when any buffer
	// fills).
	for i := 0; i < 2; i++ {
		b.Record(gpusim.Sample{SM: 1, PC: 100 + i})
	}
	for i := 0; i < 4; i++ {
		b.Record(gpusim.Sample{SM: 0, PC: i})
	}
	if b.Flushes != 1 {
		t.Fatalf("Flushes = %d, want 1", b.Flushes)
	}
	got := b.Drain()
	if len(got) != 6 {
		t.Fatalf("drained %d samples, want 6", len(got))
	}
	// Order after flush: SM 0 then SM 1.
	if got[0].SM != 0 || got[4].SM != 1 {
		t.Errorf("flush order wrong: %+v", got)
	}
}

func TestBufferDrainWithoutFill(t *testing.T) {
	b := NewBuffer(100)
	b.Record(gpusim.Sample{SM: 3, PC: 7})
	got := b.Drain()
	if len(got) != 1 || got[0].PC != 7 {
		t.Fatalf("Drain = %+v", got)
	}
	if b.Flushes != 0 {
		t.Errorf("Drain counted as a flush event: %d", b.Flushes)
	}
}

func TestDefaultCap(t *testing.T) {
	b := NewBuffer(0)
	if b.cap != DefaultBufferCap {
		t.Errorf("cap = %d, want %d", b.cap, DefaultBufferCap)
	}
}

// TestFigure1Accounting reproduces the mental model of Figure 1: six
// samples on one SM, three active and three latency; five carry stall
// reasons; stall ratio and active ratio are both 3/6.
func TestFigure1Accounting(t *testing.T) {
	mkSample := func(active bool, reason gpusim.StallReason) gpusim.Sample {
		return gpusim.Sample{PC: 0, Active: active, Reason: reason}
	}
	samples := []gpusim.Sample{
		mkSample(false, gpusim.ReasonMemoryDependency),   // N: latency, stall
		mkSample(true, gpusim.ReasonNone),                // 2N: active
		mkSample(true, gpusim.ReasonExecutionDependency), // 3N: active, stall
		mkSample(false, gpusim.ReasonMemoryDependency),   // 4N: latency, stall
		mkSample(true, gpusim.ReasonNotSelected),         // 5N: active, stall
		mkSample(false, gpusim.ReasonSync),               // 6N: latency, stall
	}
	a := AggregateSamples(samples, 1)
	if a.Total != 6 {
		t.Fatalf("total = %d, want 6", a.Total)
	}
	if a.Active != 3 || a.Latency != 3 {
		t.Errorf("active/latency = %d/%d, want 3/3", a.Active, a.Latency)
	}
	// 5 stall samples.
	var stalls int64
	for r := gpusim.StallReason(1); r < gpusim.NumReasons; r++ {
		stalls += a.Stalls[r]
	}
	if stalls != 5 {
		t.Errorf("stall samples = %d, want 5", stalls)
	}
	// One issued sample plus one ready-but-not-selected sample -> RI =
	// 2/6 (Equations 8-9 need the per-warp readiness probability).
	if got := a.IssueRatio(); got < 0.33 || got > 0.34 {
		t.Errorf("issue ratio = %v, want 2/6", got)
	}
}

func TestAggregatePerPC(t *testing.T) {
	samples := []gpusim.Sample{
		{PC: 2, Active: true, Reason: gpusim.ReasonNone},
		{PC: 2, Active: false, Reason: gpusim.ReasonMemoryDependency},
		{PC: 2, Active: false, Reason: gpusim.ReasonMemoryDependency},
		{PC: 5, Active: true, Reason: gpusim.ReasonExecutionDependency},
		{PC: 99, Active: true, Reason: gpusim.ReasonNone}, // out of range
	}
	a := AggregateSamples(samples, 10)
	st := a.PerPC[2]
	if st.Total != 3 || st.Active != 1 || st.Latency != 2 {
		t.Errorf("pc2 stats = %+v", st)
	}
	if st.Stalls[gpusim.ReasonMemoryDependency] != 2 {
		t.Errorf("pc2 memory stalls = %d, want 2", st.Stalls[gpusim.ReasonMemoryDependency])
	}
	if st.LatencyStalls[gpusim.ReasonMemoryDependency] != 2 {
		t.Errorf("pc2 latency memory stalls = %d, want 2", st.LatencyStalls[gpusim.ReasonMemoryDependency])
	}
	st5 := a.PerPC[5]
	if st5.Stalls[gpusim.ReasonExecutionDependency] != 1 || st5.LatencyStalls[gpusim.ReasonExecutionDependency] != 0 {
		t.Errorf("pc5 stats = %+v", st5)
	}
	// The out-of-range sample is dropped.
	if a.Total != 4 {
		t.Errorf("total = %d, want 4", a.Total)
	}
}

// TestCounterMatchesBuffer is the equivalence pin on the order-free
// sink: over seeded random per-SM streams — several SMs including an
// empty one, PCs outside the program — the merged counters and the
// flush count equal what Buffer → Drain → AggregateSamples reports for
// the same streams delivered in SM order, at a cap every sample fills,
// one that divides nothing evenly, and the default.
func TestCounterMatchesBuffer(t *testing.T) {
	const numPCs = 23
	rng := rand.New(rand.NewSource(42))
	var c Counter
	for _, capPerSM := range []int{1, 7, DefaultBufferCap} {
		for trial := 0; trial < 8; trial++ {
			streams := make([][]gpusim.Sample, 5)
			for sm := range streams {
				if sm == 2 {
					continue // an SM that got no blocks
				}
				n := rng.Intn(3 * DefaultBufferCap)
				for i := 0; i < n; i++ {
					streams[sm] = append(streams[sm], gpusim.Sample{
						SM:     sm,
						PC:     rng.Intn(numPCs+6) - 3,
						Active: rng.Intn(2) == 0,
						Reason: gpusim.StallReason(rng.Intn(int(gpusim.NumReasons))),
					})
				}
			}

			b := NewBuffer(capPerSM)
			for _, st := range streams {
				for _, s := range st {
					b.Record(s)
				}
			}
			want := AggregateSamples(b.Drain(), numPCs)

			// Shards resolved up front, then fed last SM first: the
			// result must not depend on which SM records when.
			c.Reset(capPerSM, numPCs)
			shards := make([]gpusim.SampleSink, len(streams))
			for sm := range shards {
				shards[sm] = c.Shard(sm)
			}
			for sm := len(streams) - 1; sm >= 0; sm-- {
				for _, s := range streams[sm] {
					shards[sm].Record(s)
				}
			}
			got, flushes := c.Merge()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cap %d trial %d: merged counters differ from Buffer+AggregateSamples", capPerSM, trial)
			}
			if flushes != b.Flushes {
				t.Fatalf("cap %d trial %d: flushes = %d, Buffer reports %d", capPerSM, trial, flushes, b.Flushes)
			}

			// The plain-sink route (Record on the Counter itself) lands
			// on the same shards.
			c.Reset(capPerSM, numPCs)
			for _, st := range streams {
				for _, s := range st {
					c.Record(s)
				}
			}
			if got, flushes := c.Merge(); !reflect.DeepEqual(got, want) || flushes != b.Flushes {
				t.Fatalf("cap %d trial %d: Counter.Record route differs (flushes %d vs %d)", capPerSM, trial, flushes, b.Flushes)
			}
		}
	}
}
