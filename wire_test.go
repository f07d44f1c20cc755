package gpa_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"gpa"
	"gpa/internal/kernels"
)

// referenceWire is the encoder the gpad wire format is defined by: the
// structured Result through encoding/json with two-space indentation,
// exactly what cmd/gpad's writeJSON does for every other body shape.
func referenceWire(t *testing.T, job gpa.Job, res gpa.JobResult, trace string) []byte {
	t.Helper()
	r := job.Result(res)
	r.TraceID = trace
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func encodeWire(t *testing.T, job gpa.Job, res gpa.JobResult, trace string) (head, tail []byte) {
	t.Helper()
	head, tail, err := job.EncodeResult(nil, res, trace)
	if err != nil {
		t.Fatal(err)
	}
	return head, tail
}

func benchJob(t *testing.T, b *kernels.Benchmark, kind gpa.JobKind) gpa.Job {
	t.Helper()
	k, wl, err := b.Base.Build()
	if err != nil {
		t.Fatal(err)
	}
	return gpa.Job{
		Kind: kind, Kernel: k, WorkloadKey: "bench:" + b.ID() + "/base",
		Options: &gpa.Options{SimSMs: 1, Seed: 11, Workload: wl},
	}
}

// TestEncodeResultMatchesReferenceEncoder is the differential pin on
// the split wire encoding: for every Table 3 row, both served kinds,
// and every combination of the fields the hand-appended head carries
// (cached flag, trace ID present or omitted, cache key present or
// omitted), head + tail must equal the reference encoding byte for
// byte, and the memoized tail must be one shared slice.
func TestEncodeResultMatchesReferenceEncoder(t *testing.T) {
	ctx := context.Background()
	eng := gpa.NewEngine(&gpa.EngineOptions{Workers: 2})
	traces := []string{"", "req-7f3a.0:1", "quote\" <tag> & café \x01"}
	for _, b := range kernels.All() {
		for _, kind := range []gpa.JobKind{gpa.JobAdvise, gpa.JobProfile} {
			job := benchJob(t, b, kind)
			cold := eng.Do(ctx, job)
			if cold.Err != nil {
				t.Fatalf("%s %v: %v", b.ID(), kind, cold.Err)
			}
			warm := eng.Do(ctx, job)
			if warm.Err != nil || !warm.Cached {
				t.Fatalf("%s %v: second run not a cache hit (err %v)", b.ID(), kind, warm.Err)
			}
			// The first encoding of a response is not kept; from the second
			// on, the response and its cached copy share one slice.
			_, first := encodeWire(t, job, cold, "")
			_, second := encodeWire(t, job, warm, "")
			_, third := encodeWire(t, job, cold, "")
			if &second[0] != &third[0] || &first[0] == &second[0] {
				t.Errorf("%s %v: want the tail memoized from the second encoding on, shared by cold and cached results", b.ID(), kind)
			}
			if !bytes.Equal(first, second) {
				t.Errorf("%s %v: unmemoized and memoized tails differ", b.ID(), kind)
			}
			for _, res := range []gpa.JobResult{cold, warm} {
				for _, cached := range []bool{false, true} {
					for _, bypass := range []bool{false, true} {
						for _, trace := range traces {
							r := res
							r.Cached = cached
							if bypass {
								r.Key = "" // what an uncacheable job reports
							}
							head, tail := encodeWire(t, job, r, trace)
							got := append(head, tail...)
							if want := referenceWire(t, job, r, trace); !bytes.Equal(got, want) {
								t.Fatalf("%s %v cached=%v bypass=%v trace=%q: wire encoding differs from reference\n got: %.300s\nwant: %.300s",
									b.ID(), kind, cached, bypass, trace, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestEncodeResultAfterEviction pins the memo's lifetime: the encoded
// tail belongs to the cached response, not to its digest, so evicting
// the entry drops it, and the next requests for the same kernel —
// served from stage artifacts as a fresh response — re-encode, to the
// same bytes.
func TestEncodeResultAfterEviction(t *testing.T) {
	ctx := context.Background()
	eng := gpa.NewEngine(&gpa.EngineOptions{Workers: 1, CacheEntries: 1})
	rows := kernels.All()
	a, other := benchJob(t, rows[0], gpa.JobAdvise), benchJob(t, rows[1], gpa.JobAdvise)
	// memoized encodes twice: the second encoding is the one kept.
	memoized := func(res gpa.JobResult) (head, tail []byte) {
		encodeWire(t, a, res, "t1")
		return encodeWire(t, a, res, "t1")
	}

	first := eng.Do(ctx, a)
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	_, firstTail := memoized(first)
	if res := eng.Do(ctx, other); res.Err != nil { // evicts a
		t.Fatal(res.Err)
	}
	if ev := eng.Stats().Evictions; ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
	again := eng.Do(ctx, a)
	if again.Err != nil {
		t.Fatal(again.Err)
	}
	head, tail := memoized(again)
	if &tail[0] == &firstTail[0] {
		t.Error("the evicted response's tail outlived its cache entry")
	}
	if !bytes.Equal(tail, firstTail) {
		t.Error("re-encoded tail differs from the evicted one")
	}
	if got, want := append(head, tail...), referenceWire(t, a, again, "t1"); !bytes.Equal(got, want) {
		t.Errorf("post-eviction wire encoding differs from reference\n got: %.300s\nwant: %.300s", got, want)
	}
}

// TestEncodeResultRejectsFailedJob: a failed job has no result to
// encode (Job.Result returns nil for it).
func TestEncodeResultRejectsFailedJob(t *testing.T) {
	_, _, err := gpa.Job{}.EncodeResult(nil, gpa.JobResult{Err: fmt.Errorf("boom")}, "")
	if err == nil {
		t.Fatal("EncodeResult of a failed JobResult must fail")
	}
}
