package gpa_test

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"gpa"
	"gpa/internal/kernels"
	"gpa/internal/store"
)

// referenceWire is the encoder the gpad wire format is defined by: the
// structured Result through json.Encoder, exactly what cmd/gpad's
// writeJSON does for every other body shape.
func referenceWire(t *testing.T, job gpa.Job, res gpa.JobResult, trace string) []byte {
	t.Helper()
	r, err := job.Result(res)
	if err != nil {
		t.Fatal(err)
	}
	r.TraceID = trace
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// compactIndented returns Result.MarshalIndent of job.Result(res),
// compacted: the indented rendering for people says what the wire says.
func compactIndented(t *testing.T, job gpa.Job, res gpa.JobResult) []byte {
	t.Helper()
	r, err := job.Result(res)
	if err != nil {
		t.Fatal(err)
	}
	indented, err := r.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, indented); err != nil {
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
// the split wire encoding: for every Table 3 row, every kind, the run's
// own result and a memory hit, and every combination of the fields the
// hand-appended head carries (cached flag, trace ID present or omitted,
// cache key present or omitted), head + tail must equal the reference
// encoding byte for byte; and the leader's tail and the hit's, built
// from the run's structs and from the stage's payload bytes, are the
// same bytes. Result.MarshalIndent, compacted, is the wire less its
// newline.
func TestEncodeResultMatchesReferenceEncoder(t *testing.T) {
	ctx := context.Background()
	eng := gpa.NewEngine(&gpa.EngineOptions{Workers: 2})
	traces := []string{"", "req-7f3a.0:1", "quote\" <tag> & café \x01"}
	for _, b := range kernels.All() {
		for _, kind := range []gpa.JobKind{gpa.JobAdvise, gpa.JobProfile, gpa.JobMeasure} {
			job := benchJob(t, b, kind)
			cold := eng.Do(ctx, job)
			if cold.Err != nil {
				t.Fatalf("%s %v: %v", b.ID(), kind, cold.Err)
			}
			warm := eng.Do(ctx, job)
			if warm.Err != nil || !warm.Cached {
				t.Fatalf("%s %v: second run not a cache hit (err %v)", b.ID(), kind, warm.Err)
			}
			_, leaderTail := encodeWire(t, job, cold, "")
			_, hitTail := encodeWire(t, job, warm, "")
			if !bytes.Equal(leaderTail, hitTail) {
				t.Errorf("%s %v: the leader's tail and a memory hit's differ", b.ID(), kind)
			}
			head, tail := encodeWire(t, job, warm, "")
			if wire := append(head, tail...); !bytes.Equal(compactIndented(t, job, warm), bytes.TrimSuffix(wire, []byte("\n"))) {
				t.Errorf("%s %v: Result.MarshalIndent, compacted, is not the wire less its newline", b.ID(), kind)
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

// TestEncodeResultAfterEviction pins the tail's lifetime: the bytes
// belong to the artifact in the memory tier, not to its key, so evicting
// the artifact drops them, and the next request for the same kernel —
// served from the store as a fresh artifact — gets other bytes that say
// the same.
func TestEncodeResultAfterEviction(t *testing.T) {
	ctx := context.Background()
	st, err := gpa.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	eng := gpa.NewEngine(&gpa.EngineOptions{Workers: 1, CacheEntries: 1, Store: st})
	rows := kernels.All()
	for _, kind := range []gpa.JobKind{gpa.JobAdvise, gpa.JobProfile} {
		a, other := benchJob(t, rows[0], kind), benchJob(t, rows[1], kind)
		if res := eng.Do(ctx, a); res.Err != nil {
			t.Fatal(res.Err)
		}
		hit := eng.Do(ctx, a) // the artifact's shared view
		if hit.Err != nil || !hit.Cached {
			t.Fatalf("%v: repeat: err=%v cached=%v", kind, hit.Err, hit.Cached)
		}
		_, firstTail := encodeWire(t, a, hit, "t1")
		before := eng.Stats().StageEvictions
		if res := eng.Do(ctx, other); res.Err != nil { // evicts a
			t.Fatal(res.Err)
		}
		if ev := eng.Stats().StageEvictions; ev == before {
			t.Fatalf("%v: nothing was evicted", kind)
		}
		again := eng.Do(ctx, a)
		if again.Err != nil || !again.Cached {
			t.Fatalf("%v: after eviction: err=%v cached=%v", kind, again.Err, again.Cached)
		}
		head, tail := encodeWire(t, a, again, "t1")
		if &tail[0] == &firstTail[0] {
			t.Errorf("%v: the evicted artifact's tail outlived it", kind)
		}
		if !bytes.Equal(tail, firstTail) {
			t.Errorf("%v: the store-served tail differs from the evicted one", kind)
		}
		if got, want := append(head, tail...), referenceWire(t, a, again, "t1"); !bytes.Equal(got, want) {
			t.Errorf("%v: post-eviction wire encoding differs from reference\n got: %.300s\nwant: %.300s", kind, got, want)
		}
	}
}

// TestRestartServesStoredBytes is the three-tier half of the wire pin:
// for every Table 3 row and every kind, head + tail from the cold
// leader, from a memory hit on the same engine, and from an engine
// restarted over the store the first one filled are byte-identical once
// the cached flag — the one permitted difference — is set equal, and
// equal the reference encoding of Job.Result. What the store holds for
// each is the response's own document, "{" + Tail(). Serving decodes no
// struct whatever the kind, and an advise is one blob read; Report,
// Profile and Advice of the served result — the kernel they name
// included — equal the cold run's; and a profile blob lost
// between the serve and the access turns the access into a typed error
// while the stored advice still serves.
func TestRestartServesStoredBytes(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	open := func() (*gpa.Engine, *gpa.Store) {
		st, err := gpa.OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return gpa.NewEngine(&gpa.EngineOptions{Workers: 2, Store: st}), st
	}
	kinds := []gpa.JobKind{gpa.JobAdvise, gpa.JobProfile, gpa.JobMeasure}
	type coldRun struct {
		job  gpa.Job
		res  gpa.JobResult
		wire []byte
	}
	var colds []coldRun
	eng1, st1 := open()
	stageOf := map[gpa.JobKind]string{gpa.JobAdvise: store.StageAdvice, gpa.JobProfile: store.StageProfile, gpa.JobMeasure: store.StageMeasure}
	for _, b := range kernels.All() {
		for _, kind := range kinds {
			job := benchJob(t, b, kind)
			res := eng1.Do(ctx, job)
			if res.Err != nil {
				t.Fatalf("%s %v: %v", b.ID(), kind, res.Err)
			}
			var key store.Key
			if n, err := hex.Decode(key[:], []byte(res.Key)); err != nil || n != len(key) {
				t.Fatalf("%s %v: key %q: %v", b.ID(), kind, res.Key, err)
			}
			if payload, ok := st1.Get(stageOf[kind], key); !ok || string(payload) != "{"+string(res.Tail()) {
				t.Fatalf("%s %v: the stored payload is not the response's document\n got: %.300s\nwant: {%.300s", b.ID(), kind, payload, res.Tail())
			}
			head, tail := encodeWire(t, job, res, "cold")
			wire := append(head, tail...)
			colds = append(colds, coldRun{job, res, wire})

			hit := eng1.Do(ctx, job)
			if hit.Err != nil || !hit.Cached {
				t.Fatalf("%s %v: repeat: err=%v cached=%v", b.ID(), kind, hit.Err, hit.Cached)
			}
			hit.Cached = res.Cached
			head, tail = encodeWire(t, job, hit, "cold")
			if got := append(head, tail...); !bytes.Equal(got, wire) {
				t.Fatalf("%s %v: memory-served bytes differ from the cold run's\n got: %.300s\nwant: %.300s", b.ID(), kind, got, wire)
			}
		}
	}
	if n := eng1.Stats().StageDecodes; n != 0 {
		t.Errorf("a cold run and a memory hit per request decoded %d payloads, want 0", n)
	}
	// An advise run puts a profile and an advice, a profile run finds the
	// profile put, a measure run puts its own: 3 puts per row.
	if puts, want := eng1.Stats().StorePuts, int64(3*len(kernels.All())); puts != want {
		t.Errorf("cold engine made %d puts, want %d", puts, want)
	}

	eng2, _ := open()
	for _, c := range colds {
		label := c.job.Kernel.Launch.Entry + " " + c.job.Kind.String()
		before := eng2.Stats()
		warm := eng2.Do(ctx, c.job)
		if warm.Err != nil || !warm.Cached {
			t.Fatalf("%s: restart: err=%v cached=%v", label, warm.Err, warm.Cached)
		}
		r := warm
		r.Cached = c.res.Cached
		head, tail := encodeWire(t, c.job, r, "cold")
		if got := append(head, tail...); !bytes.Equal(got, c.wire) {
			t.Fatalf("%s: store-served bytes differ from the cold run's\n got: %.300s\nwant: %.300s", label, got, c.wire)
		}
		// Nothing decoded to serve any kind, and one blob read for an
		// advise; the reference encoder and the accessors below then
		// decode it, and read its profile, which the row's profile
		// request finds in memory.
		after := eng2.Stats()
		if after.StageDecodes != before.StageDecodes || (c.job.Kind == gpa.JobAdvise && after.StoreHits != before.StoreHits+1) {
			t.Errorf("%s: served with storeHits +%d, stageDecodes +%d; want +1 for an advise, +0",
				label, after.StoreHits-before.StoreHits, after.StageDecodes-before.StageDecodes)
		}

		if want := referenceWire(t, c.job, r, "cold"); !bytes.Equal(c.wire, want) {
			t.Fatalf("%s: the structs a store-served result decodes to encode to other bytes than it serves", label)
		}
		coldRep, err1 := c.res.Report()
		warmRep, err2 := warm.Report()
		if err1 != nil || err2 != nil || (coldRep == nil) != (warmRep == nil) {
			t.Fatalf("%s: Report(): cold %v, %v; warm %v, %v", label, coldRep, err1, warmRep, err2)
		}
		if coldRep != nil {
			if warmRep.String() != coldRep.String() {
				t.Errorf("%s: store-served report text differs", label)
			}
			mustEqualJSON(t, label+": advice", coldRep.Advice, warmRep.Advice)
			mustEqualJSON(t, label+": report profile", coldRep.Profile, warmRep.Profile)
			if warmRep.Context != nil {
				t.Errorf("%s: a store-served report claims a Context", label)
			}
		}
		coldProf, err1 := c.res.Profile()
		warmProf, err2 := warm.Profile()
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: Profile(): %v, %v", label, err1, err2)
		}
		mustEqualJSON(t, label+": profile", coldProf, warmProf)
		coldAdv, err1 := c.res.Advice()
		warmAdv, err2 := warm.Advice()
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: Advice(): %v, %v", label, err1, err2)
		}
		if (coldAdv == nil) != (warmAdv == nil) || (coldAdv != nil && warmAdv.Kernel != coldAdv.Kernel) {
			t.Errorf("%s: the store-served advice names another kernel: %+v, cold %+v", label, warmAdv, coldAdv)
		}
		if (coldProf == nil) != (warmProf == nil) || (coldProf != nil && warmProf.Kernel != coldProf.Kernel) {
			t.Errorf("%s: the store-served profile names another kernel", label)
		}
	}

	rows := int64(len(kernels.All()))
	if st := eng2.Stats(); st.StoreHits != 3*rows || st.StageDecodes != 2*rows || st.StorePuts != 0 || st.Sims != 0 {
		t.Errorf("restarted engine: storeHits=%d stageDecodes=%d storePuts=%d sims=%d, want %d (advice, profile, measure per row), %d (advice, profile), 0, 0",
			st.StoreHits, st.StageDecodes, st.StorePuts, st.Sims, 3*rows, 2*rows)
	}

	// Serve every advise from a third engine, cut the profile stage's
	// log to nothing under it, then ask.
	eng3, st3 := open()
	var served []gpa.JobResult
	for _, c := range colds {
		if c.job.Kind == gpa.JobAdvise {
			res := eng3.Do(ctx, c.job)
			if res.Err != nil || !res.Cached {
				t.Fatalf("third engine: err=%v cached=%v", res.Err, res.Cached)
			}
			served = append(served, res)
		}
	}
	if n := eng3.Stats().StageDecodes; n != 0 {
		t.Errorf("serving stored advice decoded %d payloads, want 0", n)
	}
	if err := os.Truncate(filepath.Join(st3.Dir(), "profile.log"), 0); err != nil {
		t.Fatal(err)
	}
	for i, res := range served {
		if p, err := res.Profile(); !errors.Is(err, gpa.ErrInternal) || p != nil {
			t.Fatalf("advise %d: Profile() over a lost blob = %v, %v; want nil and ErrInternal", i, p, err)
		}
		if rep, err := res.Report(); !errors.Is(err, gpa.ErrInternal) || rep != nil {
			t.Fatalf("advise %d: Report() over a lost profile blob = %v, %v; want nil and ErrInternal", i, rep, err)
		}
		if _, _, err := colds[3*i].job.EncodeResult(nil, res, ""); err != nil {
			t.Errorf("advise %d: the stored response stopped serving: %v", i, err)
		}
	}
}

// mustEqualJSON compares two values by their JSON encoding, the form
// they cross the store in (a nil and an empty slice are one value
// there).
func mustEqualJSON(t *testing.T, label string, cold, warm any) {
	t.Helper()
	cj, err1 := json.Marshal(cold)
	wj, err2 := json.Marshal(warm)
	if err1 != nil || err2 != nil {
		t.Fatalf("%s: marshal: %v, %v", label, err1, err2)
	}
	if !bytes.Equal(cj, wj) {
		t.Errorf("%s differs from the cold run's", label)
	}
}

// TestJobResultIsACopy: a result embeds the engine's response by value,
// so writing a result's fields never reaches the response the engine
// shares with the next hit; and a hand-built result has no response
// behind it, so it encodes to an ErrInternal and converts to its
// scalars only.
func TestJobResultIsACopy(t *testing.T) {
	ctx := context.Background()
	eng := gpa.NewEngine(&gpa.EngineOptions{Workers: 1})
	job := benchJob(t, kernels.All()[0], gpa.JobAdvise)
	if res := eng.Do(ctx, job); res.Err != nil {
		t.Fatal(res.Err)
	}
	hit := eng.Do(ctx, job)
	if hit.Err != nil || !hit.Cached || hit.Key == "" {
		t.Fatalf("repeat: err=%v cached=%v key=%q", hit.Err, hit.Cached, hit.Key)
	}
	head, tail := encodeWire(t, job, hit, "")
	want := append(head, tail...)
	hit.Cached, hit.Key = false, ""
	next := eng.Do(ctx, job)
	if next.Err != nil {
		t.Fatal(next.Err)
	}
	head, tail = encodeWire(t, job, next, "")
	if got := append(head, tail...); !bytes.Equal(got, want) {
		t.Errorf("editing one result changed the next hit's bytes\n got: %.300s\nwant: %.300s", got, want)
	}

	if _, _, err := job.EncodeResult(nil, gpa.JobResult{}, ""); !errors.Is(err, gpa.ErrInternal) {
		t.Errorf("EncodeResult of a hand-built result: %v, want ErrInternal", err)
	}
	r, err := job.Result(gpa.JobResult{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind != "advise" || r.Cycles != 0 || r.Advice != nil || r.ReportText != "" || r.Profile != nil {
		t.Errorf("Result of a hand-built result = %+v, want the job's head and zero scalars only", r)
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
