package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"weak"

	"gpa/internal/apierr"
	"gpa/internal/arch"
	"gpa/internal/gpusim"
	"gpa/internal/sass"
	"gpa/internal/store"
)

// keysOf derives every stage key of a request.
func keysOf(t testing.TB, r *Request) stageKeys {
	t.Helper()
	km, err := r.keyMaterial(nil)
	if err != nil {
		t.Fatalf("keyMaterial: %v", err)
	}
	return km.keys()
}

// leaves lists the index paths of the scalar fields under a struct
// type, descending into nested structs (LaunchConfig, Dim3) and
// through the GPU model pointer, whose table the keys cover by value;
// each with its dotted name.
func leaves(typ reflect.Type, path []int, name string) (paths [][]int, names []string) {
	if typ == reflect.TypeOf((*arch.GPU)(nil)) {
		typ = typ.Elem()
	}
	if typ.Kind() != reflect.Struct {
		return [][]int{path}, []string{name}
	}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		p, n := leaves(f.Type, append(path[:len(path):len(path)], i), strings.TrimPrefix(name+"."+f.Name, "."))
		paths, names = append(paths, p...), append(names, n...)
	}
	return paths, names
}

// flip changes v to another value of its type; pointers and interfaces
// take the other value of their type from others.
func flip(t *testing.T, v reflect.Value, others map[reflect.Type]any) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Array:
		flip(t, v.Index(0), others)
	default:
		other, ok := others[v.Type()]
		if !ok {
			t.Fatalf("no other value for a %v", v.Type())
		}
		v.Set(reflect.ValueOf(other))
	}
}

// TestStageKeysFactorThePipeline is the key contract, checked field by
// field by reflection: every Request field is either result-affecting
// or in the exclusion table; flipping a result-affecting field — down to
// each scalar of LaunchConfig, Dim3 and the arch.GPU table — changes exactly the stage keys at and downstream of where it
// enters the pipeline, and no upstream key; flipping an excluded field
// changes none; Kind changes only which key is terminal. A field added
// to any of those structs fails here until it is classified and keyed,
// and a table entry naming no field fails too.
func TestStageKeysFactorThePipeline(t *testing.T) {
	// enters names the first stage each result-affecting Request field
	// can change; nested structs enter whole.
	enters := map[string]stageID{
		"ModuleHash": stMeasure, "Launch": stMeasure, "GPU": stMeasure, "SimSMs": stMeasure, "Seed": stMeasure, "WorkloadKey": stMeasure,
		"SamplePeriod": stProfile,
	}
	// excluded is the transport- and execution-only state no key covers.
	// Each entry is a proof obligation: it asserts the field can never
	// change result bytes.
	excluded := map[string]string{
		"Module":      "its content enters through ModuleHash, the caller's promise to match it",
		"Prog":        "derived cache of Module; the keys cover the module content it derives from",
		"Parallelism": "simulator results are bit-identical at every parallelism level (TestParallelMatchesSequential)",
		"Timeout":     "deadlines abort work; they never alter a completed result",
		"TraceID":     "transport-only observability (TestTraceIDExcludedFromDigest)",
		"Tenant":      "admission metadata: who runs next and who is billed, never what a run computes (TestTenantExcludedFromDigest)",
		"Lane":        "admission priority; scheduling order cannot change a completed result (TestTenantExcludedFromDigest)",
	}
	rt := reflect.TypeOf(Request{})
	var named []string
	for name := range enters {
		named = append(named, name)
	}
	for name := range excluded {
		named = append(named, name)
	}
	for _, name := range named {
		if _, ok := rt.FieldByName(name); !ok {
			t.Errorf("a table names Request.%s, which no longer exists", name)
		}
	}

	base := func() *Request {
		r := testRequest(t, KindAdvise)
		r.WorkloadKey = "wl" // so a Workload may come and go
		r.GPU = arch.VoltaV100()
		return r
	}
	otherMod, err := sass.Assemble(strings.Replace(testKernelSrc, "0x40", "0x20", 1))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := gpusim.Load(base().Module)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := (&gpusim.Spec{}).Bind(prog)
	if err != nil {
		t.Fatal(err)
	}
	others := map[reflect.Type]any{
		reflect.TypeOf(otherMod):                       otherMod,
		reflect.TypeOf(prog):                           prog,
		reflect.TypeOf((*gpusim.Workload)(nil)).Elem(): bound,
	}
	want := keysOf(t, base())

	for i := 0; i < rt.NumField(); i++ {
		field := rt.Field(i).Name
		first, keyed := enters[field]
		_, skipped := excluded[field]
		switch {
		case field == "Kind" || field == "Workload":
			continue // not fields of the list; see below
		case keyed == skipped:
			t.Errorf("Request.%s must be in exactly one of the enters and excluded tables", field)
			continue
		case skipped:
			first = numStages // changes nothing
		}
		paths, names := leaves(rt.Field(i).Type, []int{i}, field)
		for j, path := range paths {
			r := base()
			flip(t, reflect.ValueOf(r).Elem().FieldByIndex(path), others)
			got := keysOf(t, r)
			for s := range got {
				if changed, should := got[s] != want[s], stageID(s) >= first; changed != should {
					t.Errorf("flipping %s: %s key changed=%v, want %v", names[j], stageNames[s], changed, should)
				}
			}
		}
	}

	// Kind writes nothing: it selects the terminal stage, whose key is
	// the request's digest.
	for _, k := range []Kind{KindMeasure, KindProfile, KindAdvise} {
		r := base()
		r.Kind = k
		km, err := r.keyMaterial(nil)
		if err != nil {
			t.Fatal(err)
		}
		if km.keys() != want {
			t.Errorf("%v: Kind changed a stage key", k)
		}
		if km.terminal != stageOf(k) {
			t.Errorf("%v: terminal stage %d, want %d", k, km.terminal, stageOf(k))
		}
	}

	// A Workload is named by its key: with one it changes nothing, and
	// without one the request has no stable identity at all.
	wl := base()
	wl.Workload = bound
	if keysOf(t, wl) != want {
		t.Error("a keyed Workload changed a stage key")
	}
	wl.WorkloadKey = ""
	if _, err := wl.keyMaterial(nil); !errors.Is(err, apierr.ErrBadKernel) {
		t.Errorf("workload without key: %v, want ErrBadKernel", err)
	}
}

// TestEngineRetainsNoModule pins what the memory tier holds: the
// responses of served stages, and nothing of the request behind them.
// Once an advise request is answered and its caller lets go, its module
// is garbage, however warm the engine is.
func TestEngineRetainsNoModule(t *testing.T) {
	e := New(Options{Workers: 1})
	req := testRequest(t, KindAdvise)
	mod := weak.Make(req.Module)
	if _, err := e.Do(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	req = nil
	// Two collections: the first may only move pooled simulator state
	// into sync.Pool's victim cache.
	runtime.GC()
	runtime.GC()
	if mod.Value() != nil {
		t.Error("the engine still references the module of a finished request")
	}
	if st := e.Stats(); st.StageHits+st.StageMisses == 0 {
		t.Error("the engine has no memory tier to test")
	}
}

// TestEngineRetainsNoDependency: with a disk, the profile an advise run
// computed is only consumed — blamed, then put to disk — so once the
// request is answered, the response the run published for its profile,
// its document bytes included, is garbage.
func TestEngineRetainsNoDependency(t *testing.T) {
	e := newDiskEngine(t, t.TempDir())
	var art weak.Pointer[Response]
	var body weak.Pointer[byte]
	decodePayload = func(s stageID, doc []byte, kernel string) (*Response, error) {
		resp, err := decodeStage(s, doc, kernel)
		if s == stProfile && err == nil {
			art, body = weak.Make(resp), weak.Make(&doc[0])
		}
		return resp, err
	}
	defer func() { decodePayload = decodeStage }()
	if _, err := e.Do(context.Background(), testRequest(t, KindAdvise)); err != nil {
		t.Fatal(err)
	}
	if art == (weak.Pointer[Response]{}) {
		t.Fatal("the advise run published no profile")
	}
	runtime.GC()
	runtime.GC()
	if art.Value() != nil || body.Value() != nil {
		t.Errorf("the engine still references the advise run's profile: artifact %v, bytes %v",
			art.Value() != nil, body.Value() != nil)
	}
	if st := e.Stats(); st.StageHits+st.StageMisses == 0 || st.StorePuts != 2 {
		t.Errorf("stageProbes=%d storePuts=%d, want a memory tier and both stages on disk",
			st.StageHits+st.StageMisses, st.StorePuts)
	}
}

// TestSweepMatchesIsolatedRuns pins the sweep contract: a concurrent
// sweep of one module across every registered architecture runs once per
// model, analyzing the module's structure once per advice it computes,
// and produces per-arch results byte-identical to isolated cold runs.
func TestSweepMatchesIsolatedRuns(t *testing.T) {
	gpus := arch.All()
	if len(gpus) < 2 {
		t.Skip("needs at least two registered architectures")
	}

	// Cold per-arch baselines, each on an engine of its own.
	want := make([]string, len(gpus))
	wantDigest := make([]string, len(gpus))
	for i, g := range gpus {
		e := New(Options{Workers: 1})
		r := testRequest(t, KindAdvise)
		r.GPU = g
		resp, err := e.Do(context.Background(), r)
		if err != nil {
			t.Fatalf("%s: %v", arch.KeyOf(g), err)
		}
		want[i] = reportOf(t, resp)
		wantDigest[i] = resp.ProfileDigest
		if st := e.Stats(); st.StructureBuilds != 1 {
			t.Fatalf("%s: one advise built structure %d times, want 1",
				arch.KeyOf(g), st.StructureBuilds)
		}
	}

	// The sweep: one engine, all archs concurrently, each request with
	// its own content-equal module.
	e := New(Options{Workers: 4})
	var wg sync.WaitGroup
	resps := make([]*Response, len(gpus))
	errs := make([]error, len(gpus))
	for i, g := range gpus {
		wg.Add(1)
		go func(i int, g *arch.GPU) {
			defer wg.Done()
			r := testRequest(t, KindAdvise)
			r.GPU = g
			resps[i], errs[i] = e.Do(context.Background(), r)
		}(i, g)
	}
	wg.Wait()
	for i, g := range gpus {
		if errs[i] != nil {
			t.Fatalf("%s: %v", arch.KeyOf(g), errs[i])
		}
		if reportOf(t, resps[i]) != want[i] {
			t.Errorf("%s: sweep report differs from isolated cold run", arch.KeyOf(g))
		}
		if resps[i].ProfileDigest != wantDigest[i] {
			t.Errorf("%s: sweep profile digest differs from isolated cold run", arch.KeyOf(g))
		}
	}
	st := e.Stats()
	if st.StructureBuilds != int64(len(gpus)) {
		t.Errorf("sweep built structure %d times, want %d (one per advice)", st.StructureBuilds, len(gpus))
	}
	if st.Runs != int64(len(gpus)) {
		t.Errorf("sweep runs = %d, want %d (one per arch)", st.Runs, len(gpus))
	}
}

// TestProfileFeedsAdvise pins cross-kind stage reuse: an advise job
// arriving after a profile job over the same inputs reuses the stored
// profile instead of re-simulating.
func TestProfileFeedsAdvise(t *testing.T) {
	// The cold advise baseline (separate engine, nothing kept in memory).
	cold := New(Options{Workers: 1, CacheEntries: -1})
	coldResp, err := cold.Do(context.Background(), testRequest(t, KindAdvise))
	if err != nil {
		t.Fatal(err)
	}

	e := New(Options{Workers: 1})
	profResp, err := e.Do(context.Background(), testRequest(t, KindProfile))
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Sims != 1 {
		t.Fatalf("profile job: sims = %d, want 1", st.Sims)
	}
	advResp, err := e.Do(context.Background(), testRequest(t, KindAdvise))
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Sims != 1 {
		t.Errorf("advise after profile re-simulated: sims = %d, want 1", st.Sims)
	}
	if st.Runs != 2 {
		t.Errorf("runs = %d, want 2 (profile + advise-over-stored-profile)", st.Runs)
	}
	if advResp.ProfileDigest != profResp.ProfileDigest {
		t.Error("advise served a different profile than the profile job produced")
	}
	if reportOf(t, advResp) != reportOf(t, coldResp) {
		t.Error("advise over a stored profile differs from a cold advise run")
	}
	if advResp.ProfileDigest != coldResp.ProfileDigest {
		t.Error("stage-reused profile digest differs from cold run")
	}
	if advResp.Cycles != coldResp.Cycles {
		t.Errorf("cycles = %d, want %d", advResp.Cycles, coldResp.Cycles)
	}
}

// openDisk opens the on-disk store at dir and closes it with the test.
func openDisk(t *testing.T, dir string) *store.Disk {
	t.Helper()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// newDiskEngine builds an engine backed by an on-disk store at dir.
func newDiskEngine(t *testing.T, dir string) *Engine {
	t.Helper()
	return New(Options{Workers: 2, Store: openDisk(t, dir)})
}

// editFrame rewrites, where it lies in its stage's log, the frame that
// holds a stored blob: what edit returns (of any length) takes the
// frame's place, the rest of the log stays. The log is rewritten in
// place, so a handle that has it open reads the edit.
func editFrame(t *testing.T, d *store.Disk, stage string, key store.Key, edit func(frame []byte) []byte) {
	t.Helper()
	path, off, n, ok := d.Locate(stage, key)
	if !ok {
		t.Fatalf("no %s blob to damage", stage)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := append(bytes.Clone(data[:off]), edit(bytes.Clone(data[off:off+n]))...)
	if err := os.WriteFile(path, append(out, data[off+n:]...), 0o666); err != nil {
		t.Fatal(err)
	}
}

// mustEqualServed asserts a store-served response matches the cold
// original in every result-bearing byte (the Cached flag is the one
// permitted difference; ElapsedMS replays the producing run's value),
// through the scalar fields, the wire tail and every accessor.
func mustEqualServed(t *testing.T, label string, cold, warm *Response) {
	t.Helper()
	if !warm.Cached {
		t.Errorf("%s: store-served response not marked Cached", label)
	}
	if warm.Cycles != cold.Cycles {
		t.Errorf("%s: cycles = %d, want %d", label, warm.Cycles, cold.Cycles)
	}
	if warm.ElapsedMS != cold.ElapsedMS {
		t.Errorf("%s: elapsedMs = %v, want the producing run's %v", label, warm.ElapsedMS, cold.ElapsedMS)
	}
	if warm.ProfileDigest != cold.ProfileDigest {
		t.Errorf("%s: profile digest drifted across the store", label)
	}
	if wt, ct := warm.Tail(), cold.Tail(); !bytes.Equal(wt, ct) {
		t.Errorf("%s: wire tail drifted across the store\ncold: %.200s\nwarm: %.200s", label, ct, wt)
	}
	if reportOf(t, warm) != reportOf(t, cold) {
		t.Errorf("%s: report text drifted across the store", label)
	}
	mustEqualJSON(t, label+": advice", adviceOf(t, cold), adviceOf(t, warm))
	mustEqualJSON(t, label+": profile", profileOf(t, cold), profileOf(t, warm))
}

// mustEqualJSON compares two values by their canonical encoding, the
// form they cross the store in.
func mustEqualJSON(t *testing.T, label string, cold, warm any) {
	t.Helper()
	cj, err1 := json.Marshal(cold)
	wj, err2 := json.Marshal(warm)
	if err1 != nil || err2 != nil {
		t.Fatalf("%s: marshal: %v, %v", label, err1, err2)
	}
	if string(wj) != string(cj) {
		t.Errorf("%s drifted across the store", label)
	}
}

// TestDiskStoreRestartWarm pins the tentpole contract: a fresh engine
// on a populated store directory serves every kind with Runs==0 and
// Sims==0, byte-identical to the cold run, from exactly one blob read
// per request and without decoding a single payload until a caller
// asks for a struct.
func TestDiskStoreRestartWarm(t *testing.T) {
	dir := t.TempDir()
	kinds := []Kind{KindMeasure, KindProfile, KindAdvise}

	colds := make([]*Response, len(kinds))
	e1 := newDiskEngine(t, dir)
	for i, k := range kinds {
		resp, err := e1.Do(context.Background(), testRequest(t, k))
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		colds[i] = resp
	}
	if st := e1.Stats(); st.StorePuts != 3 {
		t.Errorf("cold engine made %d puts, want 3 (measure, profile, advice)", st.StorePuts)
	}

	// Restart: a brand-new engine over the same directory.
	e2 := newDiskEngine(t, dir)
	warms := make([]*Response, len(kinds))
	for i, k := range kinds {
		warm, err := e2.Do(context.Background(), testRequest(t, k))
		if err != nil {
			t.Fatalf("%v restart: %v", k, err)
		}
		warms[i] = warm
	}
	st := e2.Stats()
	if st.Runs != 0 || st.Sims != 0 {
		t.Errorf("restarted engine ran: runs=%d sims=%d, want 0/0", st.Runs, st.Sims)
	}
	if st.StageServed != int64(len(kinds)) {
		t.Errorf("stageServed = %d, want %d", st.StageServed, len(kinds))
	}
	if st.StoreHits != int64(len(kinds)) || st.StorePuts != 0 || st.StageDecodes != 0 {
		t.Errorf("serving %d requests cost storeHits=%d storePuts=%d stageDecodes=%d, want %d/0/0",
			len(kinds), st.StoreHits, st.StorePuts, st.StageDecodes, len(kinds))
	}
	if warms[2].Tail() == nil {
		t.Fatal("a stored advise has no tail")
	}
	if st := e2.Stats(); st.StageDecodes != 0 {
		t.Errorf("the stored advise tail was decoded to be served: stageDecodes=%d", st.StageDecodes)
	}

	// The accessors decode: the profile once (the advise response finds
	// the profile response's artifact in the memory stage) and the
	// advice once, however often they are called; the tails in between
	// decode nothing.
	for range 2 {
		for i, k := range kinds {
			mustEqualServed(t, k.String(), colds[i], warms[i])
		}
	}
	if st := e2.Stats(); st.StageDecodes != 2 || st.StoreHits != int64(len(kinds)) {
		t.Errorf("after every accessor: stageDecodes=%d storeHits=%d, want 2/%d", st.StageDecodes, st.StoreHits, len(kinds))
	}
}

// diskOnlyFlight sends n identical advise requests at once to a fresh
// engine over a store that holds their artifacts on disk only. The
// stage decoder the leader's disk probe calls waits until the other n-1
// have joined the leader's flight, then runs decode.
func diskOnlyFlight(t *testing.T, n int, decode func(stageID, []byte, string) (*Response, error)) (*Engine, []*Response, []error) {
	t.Helper()
	e := New(Options{Workers: 1, Store: storeRuns(t, testRequest(t, KindAdvise))})
	decodePayload = func(s stageID, payload []byte, kernel string) (*Response, error) {
		for e.n.coalesced.Load() < int64(n-1) {
			runtime.Gosched()
		}
		return decode(s, payload, kernel)
	}
	defer func() { decodePayload = decodeStage }()
	reqs := make([]*Request, n)
	for i := range reqs {
		reqs[i] = testRequest(t, KindAdvise)
	}
	resps, errs := e.DoAll(context.Background(), reqs)
	return e, resps, errs
}

// TestDiskStoreHitCoalesces: a flight's leader probes the disk on its
// own goroutine, and the requests that join its flight meanwhile share
// its one read — one miss, one store hit served without a run, the rest
// coalesced onto it, every one handed the same response.
func TestDiskStoreHitCoalesces(t *testing.T) {
	const n = 8
	e, resps, errs := diskOnlyFlight(t, n, decodeStage)
	for i, err := range errs {
		if err != nil || resps[i] != resps[0] || !resps[i].Cached {
			t.Fatalf("request %d: %v; want the one shared response", i, err)
		}
	}
	st := e.Stats()
	if st.StoreHits != 1 || st.Misses != 1 || st.Coalesced != n-1 || st.StageServed != 1 || st.Runs != 0 || st.Sims != 0 {
		t.Errorf("storeHits=%d misses=%d coalesced=%d stageServed=%d runs=%d sims=%d, want 1/1/%d/1/0/0",
			st.StoreHits, st.Misses, st.Coalesced, st.StageServed, st.Runs, st.Sims, n-1)
	}
}

// TestDiskEngineKeepsWhatItServes pins where an advise run's artifacts
// go on an engine with a disk: the advice it is served to memory and
// disk, the profile it only consumed to disk alone. A request that is
// later served that profile reads it from disk, and from then on memory
// holds it too.
func TestDiskEngineKeepsWhatItServes(t *testing.T) {
	const n = 3
	ctx := context.Background()
	e := newDiskEngine(t, t.TempDir())
	advise := func(seed uint64) *Request {
		r := testRequest(t, KindAdvise)
		r.Seed = seed
		return r
	}
	leads := make([]*Response, n)
	for i := range leads {
		resp, err := e.Do(ctx, advise(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		leads[i] = resp
	}
	if puts := e.stages.Stats().Puts; puts != n {
		t.Errorf("%d cold advises added %d memory entries, want %d: one advice each, no profile", n, puts, n)
	}
	for i := range leads {
		sk := keysOf(t, advise(uint64(i)))
		for _, s := range []stageID{stProfile, stAdvice} {
			if _, _, _, ok := e.disk.Locate(stageNames[s], sk[s]); !ok {
				t.Errorf("seed %d: no %s frame on disk", i, stageNames[s])
			}
		}
	}

	// A profile request after an advise is a disk hit, not a run.
	before := e.Stats()
	prof := advise(0)
	prof.Kind = KindProfile
	profResp, err := e.Do(ctx, prof)
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if !profResp.Cached || profResp.ProfileDigest != leads[0].ProfileDigest {
		t.Errorf("profile after advise: cached=%v, digest match=%v", profResp.Cached, profResp.ProfileDigest == leads[0].ProfileDigest)
	}
	if st.StageServed != before.StageServed+1 || st.Sims != before.Sims || st.Runs != before.Runs {
		t.Errorf("profile after advise: stageServed %d→%d sims %d→%d runs %d→%d, want one disk serve and no run",
			before.StageServed, st.StageServed, before.Sims, st.Sims, before.Runs, st.Runs)
	}
	if again, err := e.Do(ctx, prof); err != nil || again != profResp {
		t.Errorf("a served profile is not kept in memory: err=%v", err)
	}

	// An advise whose profile is on disk alone (another engine over the
	// same store profiled it) blames it from there and keeps only its
	// advice.
	r := advise(n)
	r.Kind = KindProfile
	if _, err := New(Options{Workers: 1, Store: e.disk}).Do(ctx, r); err != nil {
		t.Fatal(err)
	}
	before, puts := e.Stats(), e.stages.Stats().Puts
	if _, err := e.Do(ctx, advise(n)); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Sims != before.Sims || st.StoreHits != before.StoreHits+1 {
		t.Errorf("advise over a stored profile: sims %d→%d storeHits %d→%d, want no simulation and one disk read",
			before.Sims, st.Sims, before.StoreHits, st.StoreHits)
	}
	if got := e.stages.Stats().Puts; got != puts+1 {
		t.Errorf("advise over a stored profile added %d memory entries, want 1: its advice", got-puts)
	}
}

// TestDiskStoreFaultInjectionRecomputes drives every corruption
// scenario through the ENGINE: a damaged blob of any stage must
// degrade to a recomputed miss whose output is byte-identical to the
// cold run, with the corruption counted at read time, never an error.
// Each stage is read by the request kind it alone serves.
func TestDiskStoreFaultInjectionRecomputes(t *testing.T) {
	// Store-free cold references, one per kind (the simulator is
	// deterministic, so these are THE right answers everywhere).
	coldEng := New(Options{Workers: 1, CacheEntries: -1})
	stages := []struct {
		stage string
		kind  Kind
		cold  *Response
	}{
		{store.StageMeasure, KindMeasure, nil},
		{store.StageProfile, KindProfile, nil},
		{store.StageAdvice, KindAdvise, nil},
	}
	for i := range stages {
		resp, err := coldEng.Do(context.Background(), testRequest(t, stages[i].kind))
		if err != nil {
			t.Fatal(err)
		}
		stages[i].cold = resp
	}

	// A corruption may return what puts the store back in working
	// order where recomputing cannot.
	type corruption func(t *testing.T, d *store.Disk, stage string, key store.Key) (repair func())
	damage := func(edit func(stage string, key store.Key, frame []byte) []byte) corruption {
		return func(t *testing.T, d *store.Disk, stage string, key store.Key) func() {
			editFrame(t, d, stage, key, func(frame []byte) []byte { return edit(stage, key, frame) })
			return nil
		}
	}
	// repay stores, under a valid checksum, another payload made from
	// the stored one — split into its opening and the rest — so only
	// artifact-level validation can object.
	repay := func(edit func(stage string, open, rest []byte) []byte) corruption {
		return func(t *testing.T, d *store.Disk, stage string, key store.Key) func() {
			payload, ok := d.Get(stage, key)
			if !ok {
				t.Fatalf("no %s blob to corrupt", stage)
			}
			_, _, _, rest, ok := parseOpen(payload)
			if !ok {
				t.Fatalf("the stored %s payload opens in another form", stage)
			}
			open := len(payload) - len(rest)
			d.Put(stage, key, edit(stage, payload[:open:open], rest))
			return nil
		}
	}
	corruptions := map[string]corruption{
		"truncated": damage(func(_ string, _ store.Key, frame []byte) []byte { return frame[:len(frame)/3] }),
		"flipped-byte": damage(func(_ string, _ store.Key, frame []byte) []byte {
			// A payload byte: the payload ends where the frame's checksum
			// starts.
			frame[len(frame)-sha256.Size-2] ^= 0x04
			return frame
		}),
		// A well-formed, checksum-valid blob framed under an alien
		// payload schema (as a build with a different encoding would
		// have written): rejected by the framing's schema check.
		"wrong-schema": damage(func(stage string, key store.Key, _ []byte) []byte {
			return store.EncodeBlob("gpa-stage/0+ancient", stage, key, []byte(`{}`))
		}),
		"unreadable": func(t *testing.T, d *store.Disk, stage string, key store.Key) func() {
			// Root ignores permission bits, so force the open error
			// structurally: a directory where the stage's log should
			// be. Nothing can be stored there until it is gone.
			path, _, _, _ := d.Locate(stage, key)
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
			if err := os.Mkdir(path, 0o777); err != nil {
				t.Fatal(err)
			}
			return func() {
				if err := os.Remove(path); err != nil {
					t.Fatal(err)
				}
			}
		},
		// From here on the blob is checksum-valid and its payload is not
		// a well-formed artifact: caught by artifact validation, which
		// decodes no struct. The bad blob is stored after the good one,
		// as the newer frame of its key.
		"garbage-payload": repay(func(string, []byte, []byte) []byte {
			return []byte(`{"not":"an opening"}`)
		}),
		// The tail half of the document is lost.
		"truncated-body": repay(func(_ string, open, rest []byte) []byte {
			doc := append(open, rest...)
			return doc[:len(doc)/2]
		}),
		// Valid JSON that is not the document its opening declares: another
		// stage's rest.
		"wrong-marker": repay(func(stage string, open, _ []byte) []byte {
			rest := `,"report":"r"}` + "\n"
			if stage == store.StageAdvice {
				rest = `,"profile":{"kernel":"vecscale","cycles":1}}` + "\n"
			}
			return append(open, rest...)
		}),
		"garbage-body": repay(func(_ string, open, rest []byte) []byte {
			return append(open, strings.Repeat("\x00garbage", 1+len(rest)/8)...)
		}),
	}

	for _, sc := range stages {
		for name, mutate := range corruptions {
			t.Run(sc.stage+"/"+name, func(t *testing.T) {
				dir := t.TempDir()
				d := openDisk(t, dir)
				// Populate.
				if _, err := New(Options{Workers: 1, Store: d}).Do(context.Background(), testRequest(t, sc.kind)); err != nil {
					t.Fatal(err)
				}
				repair := mutate(t, d, sc.stage, keysOf(t, testRequest(t, sc.kind))[stageOf(sc.kind)])
				d.Close()

				// A fresh engine over the damaged store must recompute and
				// still answer byte-identically.
				recompute := func() *Engine {
					t.Helper()
					e := New(Options{Workers: 1, Store: openDisk(t, dir)})
					resp, err := e.Do(context.Background(), testRequest(t, sc.kind))
					if err != nil {
						t.Fatalf("corrupted store surfaced an error: %v", err)
					}
					if resp.Cached {
						t.Error("damaged blob was served")
					}
					if reportOf(t, resp) != reportOf(t, sc.cold) {
						t.Error("recomputed report differs from cold run")
					}
					if resp.ProfileDigest != sc.cold.ProfileDigest {
						t.Error("recomputed profile digest differs from cold run")
					}
					if resp.Cycles != sc.cold.Cycles {
						t.Errorf("recomputed cycles = %d, want %d", resp.Cycles, sc.cold.Cycles)
					}
					return e
				}
				e := recompute()
				// Rejection decodes no struct; recomputing the advice then
				// decodes the one stored profile it blames.
				wantDecodes := int64(0)
				if sc.stage == store.StageAdvice {
					wantDecodes = 1
				}
				if st := e.Stats(); st.StageDecodes != wantDecodes {
					t.Errorf("stageDecodes=%d, want %d", st.StageDecodes, wantDecodes)
				}
				corrupt := e.Stats().StoreCorrupt
				if repair != nil {
					// Where the recomputed artifact could not be stored,
					// that was counted too, and the store takes it as
					// soon as it can.
					if st := e.Stats(); st.StoreErrors == 0 || st.StorePuts != 0 {
						t.Errorf("storeErrors=%d storePuts=%d over a store that cannot be written", st.StoreErrors, st.StorePuts)
					}
					repair()
					recompute()
				}
				// The corruption healed: the recomputed artifact was
				// appended behind the damage, so one more fresh engine
				// serves it whole. By now the damage has been counted: by
				// the read that rejected it, or — a frame that never
				// framed, so was never read — by the scan that stepped
				// over it to the recomputed one.
				e3 := New(Options{Workers: 1, Store: openDisk(t, dir)})
				healed, err := e3.Do(context.Background(), testRequest(t, sc.kind))
				if err != nil {
					t.Fatal(err)
				}
				if !healed.Cached {
					t.Error("store did not heal: repeat restart still recomputes")
				}
				if reportOf(t, healed) != reportOf(t, sc.cold) {
					t.Error("healed report differs from cold run")
				}
				if corrupt+e3.Stats().StoreCorrupt == 0 {
					t.Error("the corruption was never counted")
				}
			})
		}
	}
}
