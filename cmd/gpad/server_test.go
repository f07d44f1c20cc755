package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gpa"
	"gpa/internal/kernels"
)

const testKernelSrc = `
.module sm_70
.func vecscale global
.line vecscale.cu 5
	MOV R0, 0x0 {S:2}
	S2R R1, SR_TID.X {S:2, W:5}
	IMAD R2, R1, 0x4, RZ {S:4, Q:5}
	IADD R2, R2, c[0x0][0x160] {S:2}
LOOP:
.line vecscale.cu 7
	LDG.E.32 R4, [R2] {S:1, W:0}
.line vecscale.cu 8
	FMUL R5, R4, 2f {S:4, Q:0}
	IADD R2, R2, 0x4 {S:4}
	IADD R0, R0, 0x1 {S:4}
	ISETP P0, R0, 0x40 {S:4}
BR0:	@P0 BRA LOOP {S:5}
	STG.E.32 [R2], R5 {S:1, R:1}
	EXIT {Q:1}
`

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(newServer(gpa.NewEngine(nil)))
	t.Cleanup(ts.Close)
	return ts
}

// rawBody is a request body postJSON sends as is (for bodies that are
// not one well-formed JSON value).
type rawBody string

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	if raw, ok := body.(rawBody); ok {
		data = []byte(raw)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func getJSON(t *testing.T, url string, dst any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		t.Fatal(err)
	}
}

func TestAdviseAsmAndCacheHit(t *testing.T) {
	ts := newTestServer(t)
	req := map[string]any{
		"asm": testKernelSrc, "gridX": 160, "blockX": 256, "seed": 9,
	}
	resp, body := postJSON(t, ts.URL+"/v1/advise", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var cold gpa.Result
	if err := json.Unmarshal(body, &cold); err != nil {
		t.Fatal(err)
	}
	if cold.Cached {
		t.Error("first request must be a cache miss")
	}
	if cold.Kernel != "vecscale" || cold.Arch != "v100" || cold.Cycles <= 0 {
		t.Errorf("bad response header fields: %+v", cold)
	}
	if cold.SchemaVersion != gpa.ResultSchemaVersion {
		t.Errorf("schemaVersion = %q, want %q", cold.SchemaVersion, gpa.ResultSchemaVersion)
	}
	if len(cold.Advice) == 0 {
		t.Fatal("no ranked advice entries")
	}
	if !strings.Contains(cold.ReportText, "GPA performance report for kernel vecscale") {
		t.Errorf("report text missing header:\n%s", cold.ReportText)
	}
	if cold.ProfileDigest == "" || cold.Key == "" {
		t.Error("missing profile digest or cache key")
	}

	_, body2 := postJSON(t, ts.URL+"/v1/advise", req)
	var warm gpa.Result
	if err := json.Unmarshal(body2, &warm); err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Fatal("second identical request must hit the cache")
	}
	// The determinism contract: everything but the transport-level
	// fields (Cached flag, trace ID) is byte-identical.
	if normTransport(body) != normTransport(body2) {
		t.Error("cached response body differs from cold run")
	}
}

// traceIDField matches the traceId member of an encoded result.
var traceIDField = regexp.MustCompile(`"traceId":"[^"]*",`)

// normTransport strips the per-request transport fields — the trace ID
// (unique per request by design) and the cached flag — so response
// bodies can be byte-compared under the determinism contract.
func normTransport(b []byte) string {
	s := traceIDField.ReplaceAllString(string(b), "")
	return strings.Replace(s, `"cached":true`, `"cached":false`, 1)
}

func TestAdviseBenchKernel(t *testing.T) {
	ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/advise", map[string]any{"bench": "rodinia/hotspot"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out gpa.Result
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Advice) == 0 {
		t.Fatal("no advice for bundled benchmark")
	}
	// The bundled row must be cacheable (its workload has a stable key).
	_, body2 := postJSON(t, ts.URL+"/v1/advise", map[string]any{"bench": "rodinia/hotspot"})
	var warm gpa.Result
	if err := json.Unmarshal(body2, &warm); err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Error("bundled benchmark repeat must hit the cache")
	}
	if warm.ReportText != out.ReportText {
		t.Error("cached bench report differs")
	}
}

// TestConcurrentIdenticalRequestsOneSimulation is the acceptance
// criterion: N identical concurrent requests cost exactly one
// simulation, observable at /statsz.
func TestConcurrentIdenticalRequestsOneSimulation(t *testing.T) {
	ts := newTestServer(t)
	const n = 12
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, bodies[i] = postJSON(t, ts.URL+"/v1/advise",
				map[string]any{"bench": "rodinia/hotspot"})
		}(i)
	}
	wg.Wait()
	var first gpa.Result
	if err := json.Unmarshal(bodies[0], &first); err != nil {
		t.Fatal(err)
	}
	if first.SchemaVersion != gpa.ResultSchemaVersion || first.ReportText == "" {
		t.Fatalf("bad first response: %+v", first)
	}
	for i := 1; i < n; i++ {
		var r gpa.Result
		if err := json.Unmarshal(bodies[i], &r); err != nil {
			t.Fatal(err)
		}
		if r.ReportText != first.ReportText || r.ProfileDigest != first.ProfileDigest {
			t.Fatalf("response %d differs", i)
		}
	}
	var st statszResponse
	getJSON(t, ts.URL+"/statsz", &st)
	if st.Runs != 1 {
		t.Fatalf("/statsz shows %d simulations for %d identical concurrent requests, want 1 (%+v)",
			st.Runs, n, st)
	}
	if st.Misses != 1 || st.Hits+st.Coalesced != n-1 {
		t.Errorf("stats = %+v, want 1 miss and %d hits+coalesced", st, n-1)
	}
}

// TestTable3CachedResponsesByteIdentical pins the acceptance criterion
// across every Table 3 kernel: the cached gpad response is
// byte-identical to a cold sequential run through the plain library
// API.
func TestTable3CachedResponsesByteIdentical(t *testing.T) {
	ts := newTestServer(t)
	rows := kernels.All()
	if testing.Short() {
		rows = rows[:3]
	}
	for _, b := range rows {
		k, wl, err := b.Base.Build()
		if err != nil {
			t.Fatal(err)
		}
		report, err := k.Advise(context.Background(), &gpa.Options{
			Workload: wl, Seed: 11, SimSMs: 1, Parallelism: 1,
		})
		if err != nil {
			t.Fatalf("%s: %v", b.ID(), err)
		}
		want := report.String()

		req := map[string]any{"bench": b.ID()} // full row ID: every Table 3 row
		resp, cold := postJSON(t, ts.URL+"/v1/advise", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", b.ID(), resp.StatusCode, cold)
		}
		var coldR gpa.Result
		if err := json.Unmarshal(cold, &coldR); err != nil {
			t.Fatal(err)
		}
		if coldR.ReportText != want {
			t.Errorf("%s: gpad report differs from cold sequential library run", b.ID())
		}
		_, warm := postJSON(t, ts.URL+"/v1/advise", req)
		var warmR gpa.Result
		if err := json.Unmarshal(warm, &warmR); err != nil {
			t.Fatal(err)
		}
		if !warmR.Cached {
			t.Errorf("%s: repeat request missed the cache", b.ID())
		}
		if warmR.ReportText != coldR.ReportText || warmR.ProfileDigest != coldR.ProfileDigest ||
			warmR.Cycles != coldR.Cycles {
			t.Errorf("%s: cached gpad response differs from its cold run", b.ID())
		}
	}
}

func TestProfileEndpoint(t *testing.T) {
	ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/profile", map[string]any{
		"asm": testKernelSrc, "gridX": 160, "blockX": 256, "seed": 9,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out gpa.Result
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Profile == nil || out.Profile.TotalSamples == 0 {
		t.Fatal("profile endpoint returned no samples")
	}
	if out.ReportText != "" {
		t.Error("profile response must not carry a report")
	}
	if out.ProfileDigest == "" {
		t.Error("missing profile digest")
	}
}

func TestBatchMixedKinds(t *testing.T) {
	ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/batch", map[string]any{
		"requests": []map[string]any{
			{"asm": testKernelSrc, "gridX": 160, "blockX": 256, "kind": "measure"},
			{"asm": testKernelSrc, "gridX": 160, "blockX": 256, "kind": "advise"},
			{"bench": "rodinia/hotspot"},
			{"bench": "no-such-bench"},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		SchemaVersion string            `json:"schemaVersion"`
		Results       []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.SchemaVersion != gpa.ResultSchemaVersion {
		t.Errorf("batch schemaVersion = %q", out.SchemaVersion)
	}
	if len(out.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(out.Results))
	}
	var rs [4]gpa.Result
	for i := 0; i < 3; i++ {
		if err := json.Unmarshal(out.Results[i], &rs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if rs[0].Cycles <= 0 || rs[0].ReportText != "" {
		t.Errorf("measure result wrong: %+v", rs[0])
	}
	if len(rs[1].Advice) == 0 {
		t.Error("advise result missing advice")
	}
	if len(rs[2].Advice) == 0 {
		t.Errorf("bench result missing advice: %s", out.Results[2])
	}
	var bad struct {
		Error struct {
			Code   string `json:"code"`
			Status int    `json:"status"`
		} `json:"error"`
	}
	if err := json.Unmarshal(out.Results[3], &bad); err != nil {
		t.Fatal(err)
	}
	if bad.Error.Code != "bad_request" || bad.Error.Status != http.StatusBadRequest {
		t.Errorf("unknown bench error = %+v, want bad_request/400", bad.Error)
	}
}

func TestSweepEndpoint(t *testing.T) {
	ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/sweep", map[string]any{
		"bench": "rodinia/hotspot",
		"archs": []string{"v100", "t4"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Results []gpa.Result `json:"results"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(out.Results))
	}
	if out.Results[0].Arch != "v100" || out.Results[1].Arch != "t4" {
		t.Errorf("sweep archs = %s, %s", out.Results[0].Arch, out.Results[1].Arch)
	}
	if out.Results[0].ProfileDigest == out.Results[1].ProfileDigest {
		t.Error("different architectures produced identical profiles")
	}

	// Empty archs = every registered model.
	_, body2 := postJSON(t, ts.URL+"/v1/sweep", map[string]any{"bench": "rodinia/hotspot"})
	var all struct {
		Results []gpa.Result `json:"results"`
	}
	if err := json.Unmarshal(body2, &all); err != nil {
		t.Fatal(err)
	}
	if len(all.Results) != len(gpa.GPUs()) {
		t.Errorf("default sweep covered %d archs, want %d", len(all.Results), len(gpa.GPUs()))
	}

	// A lone "arch" field is a one-model sweep, not silently ignored.
	_, body3 := postJSON(t, ts.URL+"/v1/sweep", map[string]any{
		"bench": "rodinia/hotspot", "arch": "t4",
	})
	var one struct {
		Results []gpa.Result `json:"results"`
	}
	if err := json.Unmarshal(body3, &one); err != nil {
		t.Fatal(err)
	}
	if len(one.Results) != 1 || one.Results[0].Arch != "t4" {
		t.Errorf("lone arch sweep = %d results (first arch %q), want 1 t4 result",
			len(one.Results), one.Results[0].Arch)
	}

	// arch and archs together are ambiguous.
	resp4, _ := postJSON(t, ts.URL+"/v1/sweep", map[string]any{
		"bench": "rodinia/hotspot", "arch": "t4", "archs": []string{"v100"},
	})
	if resp4.StatusCode != http.StatusBadRequest {
		t.Errorf("arch+archs = status %d, want 400", resp4.StatusCode)
	}
}

// TestFanOutBound: a batch with more entries, or a sweep with more
// models, than maxFanOut is refused as a whole before any job runs.
func TestFanOutBound(t *testing.T) {
	ts := newTestServer(t)
	reqs := make([]map[string]any, maxFanOut+1)
	archs := make([]string, maxFanOut+1)
	for i := range reqs {
		reqs[i] = map[string]any{"bench": "rodinia/hotspot"}
		archs[i] = "v100"
	}
	for _, c := range []struct {
		path string
		body any
	}{
		{"/v1/batch", map[string]any{"requests": reqs}},
		{"/v1/sweep", map[string]any{"bench": "rodinia/hotspot", "archs": archs}},
	} {
		var st0, st statszResponse
		getJSON(t, ts.URL+"/statsz", &st0)
		resp, body := postJSON(t, ts.URL+c.path, c.body)
		getJSON(t, ts.URL+"/statsz", &st)
		var e errorBody
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(body, &e) != nil || e.Error.Code != "bad_request" {
			t.Errorf("%s with %d entries: status %d %.200s, want 400 bad_request", c.path, maxFanOut+1, resp.StatusCode, body)
		}
		if st.Runs != st0.Runs {
			t.Errorf("%s over the bound ran %d jobs", c.path, st.Runs-st0.Runs)
		}
	}
}

// TestArchSpellingsKeepNoState: gpad resolves an architecture name on
// every request and keeps nothing per spelling, so a client sending
// ever new spellings of one model does not grow the server's heap.
func TestArchSpellingsKeepNoState(t *testing.T) {
	h := newServer(gpa.NewEngine(nil))
	advise := func(arch string) {
		body := string(mustMarshal(map[string]any{"bench": "rodinia/hotspot", "arch": arch}))
		if a := serveBody(t, h, body); a.status != http.StatusOK {
			t.Fatalf("arch %q: status %d %s", arch, a.status, a.body)
		}
	}
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	advise("v100") // the one computed run; every later request is a hit
	before := heap()
	// 1000 spellings, ~500 KB of names in all.
	for i := 1; i <= 1000; i++ {
		advise(strings.Repeat(" ", i) + "v100")
	}
	if grown := heap() - before; grown > 128<<10 {
		t.Errorf("heap grew %d KB over 1000 spellings of one model", grown>>10)
	}
	runtime.KeepAlive(h)
}

func TestArchsHealthzStatsz(t *testing.T) {
	ts := newTestServer(t)
	var archs []archInfo
	getJSON(t, ts.URL+"/v1/archs", &archs)
	if len(archs) != len(gpa.GPUs()) {
		t.Errorf("archs = %d, want %d", len(archs), len(gpa.GPUs()))
	}
	var health healthzResponse
	getJSON(t, ts.URL+"/healthz", &health)
	if health.Status != "ok" {
		t.Errorf("healthz = %+v", health)
	}
	if health.GoVersion == "" || health.Version == "" {
		t.Errorf("healthz missing build info: %+v", health)
	}
	if health.Store != nil {
		t.Errorf("healthz reports a store for a storeless server: %+v", health.Store)
	}
	var st statszResponse
	getJSON(t, ts.URL+"/statsz", &st)
	if st.Workers <= 0 {
		t.Errorf("statsz workers = %d", st.Workers)
	}
	if st.SchemaVersion != statszSchemaVersion {
		t.Errorf("statsz schemaVersion = %q, want %q", st.SchemaVersion, statszSchemaVersion)
	}
}

func TestBadRequests(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct {
		name   string
		body   any
		status int
	}{
		{"no kernel source", map[string]any{}, http.StatusBadRequest},
		{"two sources", map[string]any{"asm": testKernelSrc, "bench": "rodinia/hotspot"},
			http.StatusBadRequest},
		{"bench with launch shape", map[string]any{"bench": "rodinia/hotspot", "gridX": 4},
			http.StatusBadRequest},
		{"bench with entry", map[string]any{"bench": "rodinia/hotspot", "entry": "k"},
			http.StatusBadRequest},
		{"bad asm", map[string]any{"asm": "garbage"}, http.StatusUnprocessableEntity},
		{"unknown arch", map[string]any{"asm": testKernelSrc, "arch": "sm_999"},
			http.StatusBadRequest},
		{"unknown field", map[string]any{"asm": testKernelSrc, "bogus": 1},
			http.StatusBadRequest},
		{"data after the JSON value", rawBody(`{"bench":"rodinia/hotspot"} junk`),
			http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/advise", tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, body)
		}
		var out errorBody
		if err := json.Unmarshal(body, &out); err != nil {
			t.Errorf("%s: non-JSON error body: %s", tc.name, body)
		} else if out.Error.Code == "" || out.Error.Message == "" ||
			out.SchemaVersion != gpa.ResultSchemaVersion {
			t.Errorf("%s: malformed error body: %s", tc.name, body)
		}
	}
	// Wrong methods.
	resp, err := http.Get(ts.URL + "/v1/advise")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/advise = %d, want 405", resp.StatusCode)
	}
	resp2, _ := postJSON(t, ts.URL+"/statsz", map[string]any{})
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /statsz = %d, want 405", resp2.StatusCode)
	}

	// The bodies the one-pass decoder leaves to encoding/json are
	// answered as decode answers them: status, code and message.
	h := newServer(gpa.NewEngine(nil))
	for _, tc := range kernelBodyRows {
		var req kernelRequest
		if fast := len(tc.body) <= maxBodyBytes && parseKernelRequest([]byte(tc.body), &req, newKernelCache(nil)); fast != tc.fast {
			t.Errorf("%s: decoded in one pass = %v, want %v", tc.name, fast, tc.fast)
		}
		got := serveBody(t, h, tc.body)
		if got.status != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, got.status, tc.status, got.body)
		}
		if want := referenceAnswer(t, h, tc.body); got.status != want.status ||
			got.Error != want.Error || got.Key != want.Key {
			t.Errorf("%s: answered %d %+v key %q, decode's answer %d %+v key %q",
				tc.name, got.status, got.Error, got.Key, want.status, want.Error, want.Key)
		}
	}
}

// kernelBodyRows holds a body per class parseKernelRequest declines, a
// valid one and an invalid one where both exist, and a repeated key,
// which it reads (the last value wins, as in encoding/json) unless the
// key is "asm": encoding/json checks every asm value, the one-pass
// decoder only the one it keeps.
var kernelBodyRows = []struct {
	name   string
	body   string
	status int
	fast   bool // decoded in one pass: read whole and parseKernelRequest reads it
}{
	{"plain asm", `{"asm":` + string(mustMarshal(testKernelSrc)) + `}`, http.StatusOK, true},
	{"escaped backslash before the closing quote", `{"bench":"rodinia/hotspot","entry":"k\\"}`, http.StatusBadRequest, true},
	{"case-variant key", `{"ASM":"garbage"}`, http.StatusUnprocessableEntity, false},
	{"case-variant key is accepted", `{"ASM":` + string(mustMarshal(testKernelSrc)) + `}`, http.StatusOK, false},
	{"null", `{"bench":"rodinia/hotspot","seed":null}`, http.StatusOK, false},
	{`\u escape`, `{"bench":"rodinia/hotspo\u0074"}`, http.StatusOK, false},
	{`\u escape naming nothing`, `{"bench":"rodinia/\u0041"}`, http.StatusBadRequest, false},
	{"fraction", `{"bench":"rodinia/hotspot","gridX":1.5}`, http.StatusBadRequest, false},
	{"exponent", `{"bench":"rodinia/hotspot","gridX":1e3}`, http.StatusBadRequest, false},
	{"leading zero", `{"bench":"rodinia/hotspot","gridX":01}`, http.StatusBadRequest, false},
	{"overflow", `{"bench":"rodinia/hotspot","seed":18446744073709551616}`, http.StatusBadRequest, false},
	{"negative seed", `{"bench":"rodinia/hotspot","seed":-1}`, http.StatusBadRequest, false},
	{"duplicate key", `{"bench":"rodinia/nope","bench":"rodinia/hotspot"}`, http.StatusOK, true},
	{"duplicate asm key", `{"asm":"garbage","asm":` + string(mustMarshal(testKernelSrc)) + `}`, http.StatusOK, false},
	{"duplicate asm key, bad escape first", `{"asm":"a\qb","asm":` + string(mustMarshal(testKernelSrc)) + `}`, http.StatusBadRequest, false},
	{"duplicate asm key, control byte first", "{\"asm\":\"a\x01b\",\"asm\":" + string(mustMarshal(testKernelSrc)) + "}", http.StatusBadRequest, false},
	{"invalid UTF-8", "{\"asm\":\".func k global\\n\\tMOV\xff R0, 0x0\\n\"}", http.StatusUnprocessableEntity, false},
	{"non-ASCII", `{"bench":"rodinia/hotspot","arch":"vólta"}`, http.StatusBadRequest, false},
	{"binary", `{"binary":"AAAA"}`, http.StatusUnprocessableEntity, false},
	{"unknown key", `{"bench":"rodinia/hotspot","bogus":1}`, http.StatusBadRequest, false},
	{"null body", `null`, http.StatusBadRequest, false},
	{"empty body", ``, http.StatusBadRequest, false},
	{"over 8 MB", `{"asm":"` + strings.Repeat("a", maxBodyBytes) + `"}`, http.StatusBadRequest, false},
	{"trailing data", `{"bench":"rodinia/hotspot"} junk`, http.StatusBadRequest, false},
	{"second value", `{"bench":"rodinia/hotspot"}{}`, http.StatusBadRequest, false},
	{"assembles but cannot be encoded", `{"asm":".func k global\nA:ISETP 0,[R0],0\nEXIT","gridX":2,"blockX":64}`, http.StatusUnprocessableEntity, true},
}

func mustMarshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// answer is what a client learns from a single-kernel response: its
// status, its error, and the digest a result carries.
type answer struct {
	status int
	body   string
	Error  errInfo `json:"error"`
	Key    string  `json:"key"`
}

// serveBody POSTs body to /v1/advise in process.
func serveBody(t *testing.T, h http.Handler, body string) answer {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/advise", strings.NewReader(body)))
	return answerOf(t, rec)
}

func answerOf(t *testing.T, rec *httptest.ResponseRecorder) answer {
	a := answer{status: rec.Code, body: rec.Body.String()}
	if err := json.Unmarshal(rec.Body.Bytes(), &a); err != nil {
		t.Fatalf("non-JSON body %q: %v", a.body, err)
	}
	return a
}

// referenceAnswer is the answer of gpad before the one-pass decoder: the
// error decode writes for body, or, when decode reads it, the answer to
// the request it read (posted as json.Marshal writes it).
func referenceAnswer(t *testing.T, h http.Handler, body string) answer {
	rec := httptest.NewRecorder()
	var req kernelRequest
	if !decode(rec, httptest.NewRequest(http.MethodPost, "/v1/advise", strings.NewReader(body)), &req) {
		return answerOf(t, rec)
	}
	return serveBody(t, h, string(mustMarshal(req)))
}

// TestNegativeOptionsRejected: a negative timeoutMs would run with no
// deadline at all, past the operator's -job-timeout, and a negative
// simSMs would simulate the default SM count under a key of its own;
// both are malformed requests, and neither reaches the engine.
func TestNegativeOptionsRejected(t *testing.T) {
	eng := gpa.NewEngine(&gpa.EngineOptions{DefaultTimeout: time.Nanosecond})
	ts := httptest.NewServer(newServer(eng))
	t.Cleanup(ts.Close)
	for _, field := range []string{"timeoutMs", "simSMs"} {
		resp, body := postJSON(t, ts.URL+"/v1/advise", map[string]any{"bench": "rodinia/hotspot", field: -1})
		var out errorBody
		if err := json.Unmarshal(body, &out); err != nil || resp.StatusCode != http.StatusBadRequest || out.Error.Code != "bad_request" {
			t.Errorf("%s -1: status %d, body %s; want 400 bad_request", field, resp.StatusCode, body)
		}
	}
	if st := eng.Stats(); st.Runs != 0 || st.Canceled != 0 {
		t.Errorf("rejected requests reached the engine: runs=%d canceled=%d", st.Runs, st.Canceled)
	}
}

func TestAnalysisErrorIsUnprocessable(t *testing.T) {
	ts := newTestServer(t)
	// Assembles fine but the entry does not exist at launch time: a
	// bad_kernel, not a malformed request.
	resp, body := postJSON(t, ts.URL+"/v1/advise", map[string]any{
		"asm": testKernelSrc, "entry": "missing",
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("status %d for missing entry, want 422: %s", resp.StatusCode, body)
	}
	var out errorBody
	if err := json.Unmarshal(body, &out); err != nil || out.Error.Code != "bad_kernel" {
		t.Errorf("missing entry error code = %q, want bad_kernel (%s)", out.Error.Code, body)
	}
}

// TestGridPastCUDALimitsIsUnprocessable: a grid past CUDA's limits is a
// bad_kernel, refused before anything is simulated.
func TestGridPastCUDALimitsIsUnprocessable(t *testing.T) {
	ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/advise", map[string]any{
		"asm": testKernelSrc, "gridX": 1, "gridY": 65536, "blockX": 64,
	})
	var out errorBody
	if err := json.Unmarshal(body, &out); err != nil || resp.StatusCode != http.StatusUnprocessableEntity || out.Error.Code != "bad_kernel" {
		t.Errorf("gridY 65536: status %d, body %s; want 422 bad_kernel", resp.StatusCode, body)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	ts := newTestServer(t)
	k, err := gpa.LoadKernelAsm(testKernelSrc, gpa.Launch{GridX: 160, BlockX: 256})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := k.SaveBinary()
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/advise", map[string]any{
		"binary": blob, "entry": "vecscale", "gridX": 160, "blockX": 256, "seed": 9,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var bin gpa.Result
	if err := json.Unmarshal(body, &bin); err != nil {
		t.Fatal(err)
	}
	// A binary upload of the same module content must share the cache
	// entry with the equivalent asm upload: the key is content-addressed.
	_, body2 := postJSON(t, ts.URL+"/v1/advise", map[string]any{
		"asm": testKernelSrc, "gridX": 160, "blockX": 256, "seed": 9,
	})
	var asm gpa.Result
	if err := json.Unmarshal(body2, &asm); err != nil {
		t.Fatal(err)
	}
	if asm.Key != bin.Key {
		t.Errorf("asm and binary uploads of the same module digest differently:\n%s\n%s",
			asm.Key, bin.Key)
	}
	if !asm.Cached {
		t.Error("asm upload after identical binary upload must hit the cache")
	}
	if asm.ReportText != bin.ReportText {
		t.Error("asm and binary reports differ")
	}
}

func TestStatszCountersProgress(t *testing.T) {
	ts := newTestServer(t)
	var st0 statszResponse
	getJSON(t, ts.URL+"/statsz", &st0)
	postJSON(t, ts.URL+"/v1/advise", map[string]any{"bench": "rodinia/hotspot"})
	postJSON(t, ts.URL+"/v1/advise", map[string]any{"bench": "rodinia/hotspot"})
	var st statszResponse
	getJSON(t, ts.URL+"/statsz", &st)
	if st.Misses != st0.Misses+1 || st.Hits != st0.Hits+1 {
		t.Errorf("stats did not progress: %+v -> %+v", st0, st)
	}
	if st.Inflight != 0 {
		t.Errorf("inflight = %d at rest", st.Inflight)
	}
}
