package service

// Observability contract tests: trace IDs are transport-level only —
// they never enter the result digest or any stage key, so two requests
// differing only in TraceID share one cache entry and byte-identical
// responses — and the per-stage latency histograms record exactly the
// stages a run executes.

import (
	"context"
	"testing"

	"gpa/internal/gpusim"
	"gpa/internal/obs"
)

// obsTestRequest builds a cacheable advise request (testRequest lives
// in service_test.go).
func obsTestRequest(t *testing.T) *Request {
	t.Helper()
	return testRequest(t, KindAdvise)
}

func TestTraceIDExcludedFromDigest(t *testing.T) {
	a := obsTestRequest(t)
	b := obsTestRequest(t)
	b.TraceID = "trace-b-1234"
	c := obsTestRequest(t)
	c.TraceID = "another-trace-entirely"

	da, err := resultKey(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := resultKey(b)
	if err != nil {
		t.Fatal(err)
	}
	dc, err := resultKey(c)
	if err != nil {
		t.Fatal(err)
	}
	if da == "" {
		t.Fatal("empty digest for cacheable request")
	}
	if da != db || db != dc {
		t.Fatalf("trace ID leaked into the digest: %s / %s / %s", da, db, dc)
	}

	// Stage keys must exclude it too: a traced request warms the same
	// artifacts an untraced one reads.
	if keysOf(t, a) != keysOf(t, b) {
		t.Fatal("trace ID leaked into stage keys")
	}
}

func TestTracedRequestsShareOneRun(t *testing.T) {
	e := New(Options{Workers: 1})
	ra := obsTestRequest(t)
	ra.TraceID = "first"
	rb := obsTestRequest(t)
	rb.TraceID = "second"

	respA, err := e.Do(context.Background(), ra)
	if err != nil {
		t.Fatal(err)
	}
	respB, err := e.Do(context.Background(), rb)
	if err != nil {
		t.Fatal(err)
	}
	if !respB.Cached {
		t.Fatal("second request with a different trace ID missed the cache")
	}
	if reportOf(t, respA) != reportOf(t, respB) || respA.ProfileDigest != respB.ProfileDigest {
		t.Fatal("traced responses differ")
	}
	if st := e.Stats(); st.Runs != 1 {
		t.Fatalf("runs = %d, want 1 (trace IDs must not split the cache)", st.Runs)
	}
}

func TestStageLatencyRecorded(t *testing.T) {
	e := New(Options{Workers: 1})
	lat := e.StageLatency()
	if lat == nil {
		t.Fatal("engine without a stage latency recorder")
	}
	// A cold advise run executes simulate (profile collection), blame,
	// and advise exactly once each; assembly is its caller's, above the
	// engine. A warm hit executes nothing.
	for _, when := range []string{"one cold run", "a cache hit"} {
		if _, err := e.Do(context.Background(), obsTestRequest(t)); err != nil {
			t.Fatal(err)
		}
		for s := obs.Stage(0); s < obs.NumStages; s++ {
			want := int64(1)
			if s == obs.StageAssemble {
				want = 0
			}
			if n := lat.Histogram(s).Snapshot().Count; n != want {
				t.Errorf("stage %s recorded %d observations after %s, want %d", s, n, when, want)
			}
		}
	}
}

// TestStatsPoolCountersConsistent: a Stats snapshot taken while runs
// are counted reports PoolGets equal to Sims, and PoolHits no larger.
func TestStatsPoolCountersConsistent(t *testing.T) {
	e := New(Options{Workers: 1})
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				e.noteSim(gpusim.Work{ArenaReused: true})
			}
		}
	}()
	defer func() { close(stop); <-done }()
	for i := 0; i < 2000; i++ {
		st := e.Stats()
		if st.PoolGets != st.Sims || st.PoolHits > st.PoolGets {
			t.Fatalf("snapshot %d: sims %d, poolGets %d, poolHits %d", i, st.Sims, st.PoolGets, st.PoolHits)
		}
	}
}
