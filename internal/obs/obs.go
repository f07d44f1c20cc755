// Package obs is the observability layer under the serving path:
// allocation-free latency histograms for the Figure 2 pipeline stages,
// labeled HTTP request counters, and a dependency-free Prometheus
// text-format (exposition format 0.0.4) renderer that cmd/gpad serves
// at GET /metrics.
//
// The package is deliberately self-contained — no client_golang, no
// registry indirection — because the container bakes in nothing beyond
// the standard library and the serving hot path must not allocate to
// record an observation. A Histogram is a fixed array of atomic bucket
// counters; Observe is two atomic adds and a branch-free bucket search
// over a couple dozen bounds. Everything here but a PromWriter is safe
// for concurrent use; Write* methods render a point-in-time snapshot
// and never block recorders.
//
// Reading the metrics must stay cheap too: a PromWriter appends the
// whole exposition into one byte buffer (strconv appends, byte-loop
// escapes, no fmt) and keeps the scratch a scrape needs, so gpad renders
// a scrape into a pooled writer with a few dozen allocations, none of
// them per series.
//
// Contract with the determinism story: nothing in this package ever
// feeds a digest. Trace IDs, timings, and scrape output are transport-
// level observability; the content-addressed keys and drift-check
// output are computed entirely upstream of it and stay byte-identical
// whether or not anyone scrapes.
package obs

import (
	"slices"
	"sync/atomic"
	"time"
)

// DefaultBuckets are the histogram upper bounds in seconds used by
// NewHistogram(nil): roughly logarithmic from 10µs (a warm engine
// cache hit runs ~4µs) to 30s (a pathological cold sweep), so both
// tails of the serving distribution land in populated buckets.
var DefaultBuckets = []float64{
	10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10, 30,
}

// Histogram is a fixed-bucket latency histogram with atomic counters.
// The zero value is unusable; build with NewHistogram. A nil Histogram
// ignores observations, so optional recorders need no guards.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; the last bucket is +Inf
	sumNS  atomic.Int64
}

// NewHistogram builds a histogram over the given ascending upper
// bounds in seconds (nil = DefaultBuckets).
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefaultBuckets
	}
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	s := d.Seconds()
	// Linear scan: the bounds list is short and the common case (small
	// latencies) exits early; a binary search would touch more cache
	// lines than it saves comparisons.
	i := 0
	for i < len(h.bounds) && s > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumNS.Add(int64(d))
}

// Since records the elapsed time from start to now.
func (h *Histogram) Since(start time.Time) { h.Observe(time.Since(start)) }

// HistogramSnapshot is a point-in-time copy of a histogram's state.
// Counts are per-bucket (not cumulative); the last entry is the +Inf
// bucket. Buckets are read one atomic at a time, so a scrape racing an
// Observe may miss the in-flight observation, never corrupt a bucket;
// Count is the sum of Counts, so a rendered _count always equals its
// own le="+Inf" bucket, as the exposition format requires. SumSeconds
// is read after the buckets and may or may not include an observation
// in flight.
type HistogramSnapshot struct {
	Bounds     []float64
	Counts     []int64
	Count      int64
	SumSeconds float64
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot { return h.snapshot(nil) }

// snapshot is Snapshot reading the bucket counts into dst's storage.
func (h *Histogram) snapshot(dst []int64) HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{Bounds: h.bounds, Counts: slices.Grow(dst[:0], len(h.counts))}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts = append(s.Counts, c)
		s.Count += c
	}
	s.SumSeconds = float64(h.sumNS.Load()) / 1e9
	return s
}

// Stage names one Figure 2 pipeline stage for latency accounting.
type Stage int

const (
	// StageAssemble is the module front-end, timed where it runs: a
	// SASS/CUBIN decode on a gpad kernel-cache miss. The engine records
	// none: every request brings its program.
	StageAssemble Stage = iota
	// StageSimulate is a gpusim run or a sampling-profiler collection —
	// the simulator invocations Stats.Sims counts.
	StageSimulate
	// StageBlame is CFG/loop structure analysis plus blame-context
	// construction (pruning, apportioning).
	StageBlame
	// StageAdvise is optimizer matching, estimation, ranking, and
	// report rendering.
	StageAdvise
	// NumStages bounds the Stage enum.
	NumStages
)

// String names the stage as it appears in the "stage" metric label.
func (s Stage) String() string {
	switch s {
	case StageAssemble:
		return "assemble"
	case StageSimulate:
		return "simulate"
	case StageBlame:
		return "blame"
	case StageAdvise:
		return "advise"
	}
	return "unknown"
}

// StageLatency is one histogram per pipeline stage. Stages record only
// when they actually run: cache and store hits skip every stage, so
// the histogram counts correlate with the engine's runs/sims counters
// rather than with request volume.
type StageLatency struct {
	h [NumStages]*Histogram
}

// NewStageLatency builds a stage-latency recorder with default
// buckets.
func NewStageLatency() *StageLatency {
	l := &StageLatency{}
	for i := range l.h {
		l.h[i] = NewHistogram(nil)
	}
	return l
}

// Observe records one stage execution. Safe on a nil recorder.
func (l *StageLatency) Observe(s Stage, d time.Duration) {
	if l == nil || s < 0 || s >= NumStages {
		return
	}
	l.h[s].Observe(d)
}

// Since records the elapsed time from start to now for one stage.
func (l *StageLatency) Since(s Stage, start time.Time) {
	if l == nil {
		return
	}
	l.Observe(s, time.Since(start))
}

// Histogram returns the recorder for one stage (nil on a nil
// recorder).
func (l *StageLatency) Histogram(s Stage) *Histogram {
	if l == nil || s < 0 || s >= NumStages {
		return nil
	}
	return l.h[s]
}
