package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"gpa"
	"gpa/internal/arch"
	"gpa/internal/kernels"
	"gpa/internal/obs"
	"gpa/internal/service"
)

// maxBodyBytes bounds request bodies (SASS text and CUBIN blobs are
// small; anything bigger is abuse).
const maxBodyBytes = 8 << 20

// maxFanOut bounds the entries of one batch and the models of one
// sweep: each becomes a job (and a goroutine), so a request over it is
// refused while its body is decoded (see fanOut), before any job is
// built.
const maxFanOut = 256

// fanOut is the list of a batch or a sweep. It decodes one element at a
// time and refuses the element past maxFanOut there, so an over-bound
// body costs its scan, not a value per entry. Within the bound it
// decodes as encoding/json decodes a plain slice: null is nil, [] is
// empty, an element decodes into the value a repeated key left at its
// index, and an unknown field is refused.
type fanOut[T any] []T

func (s *fanOut[T]) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*s = nil
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if tok, err := dec.Token(); err != nil || tok != json.Delim('[') {
		return fmt.Errorf("json: want an array, got %.20s", data)
	}
	v, i := *s, 0
	for ; dec.More(); i++ {
		if i == maxFanOut {
			return fmt.Errorf("more than %d entries in one batch or sweep", maxFanOut)
		}
		if i < cap(v) {
			v = v[:i+1]
		} else {
			v = append(v, *new(T))
		}
		if err := dec.Decode(&v[i]); err != nil {
			return err
		}
	}
	if i == 0 {
		*s = fanOut[T]{}
		return nil
	}
	*s = v[:i]
	return nil
}

// server is the HTTP front end over one shared engine. Every handler
// derives its job context from the request context, so a client that
// disconnects cancels its queued or in-flight work (coalesced
// duplicates only detach the leaving waiter; the shared simulation
// keeps running for the rest).
type server struct {
	eng     *gpa.Engine
	started time.Time
	// store is the persistent artifact store /healthz probes (nil =
	// in-memory only).
	store *gpa.Store
	// log receives one structured line per request (see withObs).
	log *slog.Logger
	// metrics accumulates the per-route request counters and latency
	// histograms /metrics renders.
	metrics *obs.RequestMetrics
	// hints computes the jittered Retry-After values shed responses
	// (429 and 503) advertise.
	hints retryHints
	// version is the build version stamped on /healthz and
	// gpa_build_info.
	version string
	// kernels shares built kernels between equal asm/binary submissions.
	kernels *kernelCache
	// benches resolves "bench" names to bundled rows (see indexBenches).
	benches map[string]bundledBench
}

// serverConfig wires the server's collaborators; zero values get safe
// defaults (discard logger, no store).
type serverConfig struct {
	engine *gpa.Engine
	store  *gpa.Store
	logger *slog.Logger
}

// newServer builds the gpad handler around a shared engine with
// default observability wiring (tests use this; main wires a store and
// a real logger through newServerCfg).
func newServer(eng *gpa.Engine) http.Handler {
	return newServerCfg(serverConfig{engine: eng})
}

// newServerCfg builds the fully wired gpad handler: the API mux inside
// the observability middleware (trace IDs, request log, request
// metrics).
func newServerCfg(cfg serverConfig) http.Handler {
	logger := cfg.logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &server{
		eng:     cfg.engine,
		started: time.Now(),
		store:   cfg.store,
		log:     logger,
		metrics: obs.NewRequestMetrics(),
		version: buildVersion(),
		kernels: newKernelCache(cfg.engine.StageLatency()),
		benches: indexBenches(),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/advise", s.post(s.handleAdvise))
	mux.HandleFunc("/v1/profile", s.post(s.handleProfile))
	mux.HandleFunc("/v1/batch", s.post(s.handleBatch))
	mux.HandleFunc("/v1/sweep", s.post(s.handleSweep))
	mux.HandleFunc("/v1/archs", s.get(s.handleArchs))
	mux.HandleFunc("/healthz", s.get(s.handleHealthz))
	mux.HandleFunc("/statsz", s.get(s.handleStatsz))
	mux.HandleFunc("/v1/statsz", s.get(s.handleStatsz))
	mux.HandleFunc("/metrics", s.get(s.handleMetrics))
	return s.withObs(mux)
}

// kernelRequest is the JSON body shared by every kernel-submitting
// endpoint: a kernel (bundled benchmark, SASS text, or CUBIN blob),
// its launch shape, and the result-affecting options. Exactly one of
// Bench, Asm, or Binary must be set.
type kernelRequest struct {
	// Bench names a bundled Table 3 benchmark ("rodinia/hotspot");
	// its baseline kernel, launch, and workload are used.
	Bench string `json:"bench,omitempty"`
	// Asm is SASS assembly text.
	Asm string `json:"asm,omitempty"`
	// Binary is a CUBIN container blob (base64 in JSON).
	Binary []byte `json:"binary,omitempty"`

	// Entry is the kernel name (optional for single-kernel asm).
	Entry string `json:"entry,omitempty"`
	// Launch shape; omitted grid/block/regs fields default to the CLI's
	// 640 blocks x 256 threads x 32 registers for Asm/Binary kernels.
	GridX             int `json:"gridX,omitempty"`
	GridY             int `json:"gridY,omitempty"`
	GridZ             int `json:"gridZ,omitempty"`
	BlockX            int `json:"blockX,omitempty"`
	BlockY            int `json:"blockY,omitempty"`
	BlockZ            int `json:"blockZ,omitempty"`
	RegsPerThread     int `json:"regsPerThread,omitempty"`
	SharedMemPerBlock int `json:"sharedMemPerBlock,omitempty"`

	// Arch selects the GPU model (see /v1/archs; default v100).
	Arch string `json:"arch,omitempty"`
	// Kind selects the pipeline stage for /v1/batch entries ("advise",
	// "profile", "measure"; default advise). Ignored by /v1/advise and
	// /v1/profile, which fix their kind.
	Kind         string  `json:"kind,omitempty"`
	SamplePeriod int     `json:"samplePeriod,omitempty"`
	SimSMs       int     `json:"simSMs,omitempty"`
	Seed         *uint64 `json:"seed,omitempty"` // default 11
	// TimeoutMS is this job's deadline in milliseconds, measured from
	// admission (0 = the server's -job-timeout default). Expiry returns
	// 504 with code "deadline_exceeded".
	TimeoutMS int `json:"timeoutMs,omitempty"`

	// kernel is the asm kernel parseKernelRequest found in the kernel
	// cache; Asm is then left empty. asmRaw is, on its miss, the asm
	// string as the body spelled it, which the built kernel is cached
	// under. encoding/json sets neither.
	kernel *gpa.Kernel
	asmRaw string
}

// launch is the request's launch with the CLI's defaults for an
// unspecified shape: what an asm or binary kernel is built for and
// cached under.
func (r *kernelRequest) launch() gpa.Launch {
	l := gpa.Launch{
		Entry: r.Entry,
		GridX: r.GridX, GridY: r.GridY, GridZ: r.GridZ,
		BlockX: r.BlockX, BlockY: r.BlockY, BlockZ: r.BlockZ,
		RegsPerThread:     r.RegsPerThread,
		SharedMemPerBlock: r.SharedMemPerBlock,
	}
	if l.GridX == 0 && l.GridY == 0 && l.GridZ == 0 {
		l.GridX = 640
	}
	if l.BlockX == 0 && l.BlockY == 0 && l.BlockZ == 0 {
		l.BlockX = 256
	}
	if l.RegsPerThread == 0 {
		l.RegsPerThread = 32
	}
	return l
}

// job converts the request to an engine job; s resolves architecture
// and benchmark names.
func (r *kernelRequest) job(s *server) (gpa.Job, error) {
	var job gpa.Job
	// A negative timeout would mean "no deadline" to the engine, escaping
	// -job-timeout; a negative simSMs would simulate the default 4 SMs
	// under a key of its own.
	if r.TimeoutMS < 0 || r.SimSMs < 0 {
		return job, fmt.Errorf("timeoutMs and simSMs must not be negative")
	}
	kind, err := service.ParseKind(r.Kind)
	if err != nil {
		return job, err
	}
	job.Kind = kind
	job.Timeout = time.Duration(r.TimeoutMS) * time.Millisecond

	opts := &gpa.Options{
		SamplePeriod: r.SamplePeriod,
		SimSMs:       r.SimSMs,
		Seed:         11,
	}
	if r.Seed != nil {
		opts.Seed = *r.Seed
	}
	if opts.SimSMs == 0 {
		opts.SimSMs = 1 // the CLI's default: one detailed SM
	}
	if r.Arch != "" {
		g, err := gpa.LookupGPU(r.Arch)
		if err != nil {
			return job, err
		}
		opts.GPU = g
	}
	job.Options = opts

	sources := 0
	for _, set := range []bool{r.Bench != "", r.Asm != "" || r.kernel != nil, len(r.Binary) > 0} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return job, fmt.Errorf("exactly one of bench, asm, or binary must be set")
	}

	if r.Bench != "" {
		// A bundled benchmark carries its own entry and launch shape;
		// silently ignoring user-supplied ones would return results for
		// a launch the client did not ask about.
		if r.Entry != "" || r.GridX != 0 || r.GridY != 0 || r.GridZ != 0 ||
			r.BlockX != 0 || r.BlockY != 0 || r.BlockZ != 0 ||
			r.RegsPerThread != 0 || r.SharedMemPerBlock != 0 {
			return job, fmt.Errorf("bench requests use the benchmark's own entry and launch; remove entry/grid/block/regs/shared fields")
		}
		b, ok := s.benches[r.Bench]
		if !ok {
			return job, fmt.Errorf("no bundled benchmark %q (see `gpa list`)", r.Bench)
		}
		k, wl, err := b.base.Build()
		if err != nil {
			return job, err
		}
		opts.Workload = wl
		job.Kernel = k
		job.WorkloadKey = b.workloadKey
		return job, nil
	}

	launch := r.launch()
	switch {
	case r.kernel != nil:
		job.Kernel = r.kernel
	case r.Asm != "":
		kind, src := sourceAsm, r.Asm
		if r.asmRaw != "" {
			kind, src = sourceAsmRaw, r.asmRaw
		}
		job.Kernel, err = cachedKernel(s.kernels, kind, launch, src, func() (*gpa.Kernel, error) {
			return gpa.LoadKernelAsm(r.Asm, launch)
		})
	default:
		job.Kernel, err = cachedKernel(s.kernels, sourceBinary, launch, r.Binary, func() (*gpa.Kernel, error) {
			return gpa.LoadKernelBinary(r.Binary, launch)
		})
	}
	return job, err
}

// bundledBench is what a "bench" request needs of a Table 3 row.
type bundledBench struct {
	base        *kernels.Variant
	workloadKey string
}

// indexBenches maps every name a bundled benchmark answers to: its full
// row ID ("App Kernel Optimization"), so every Table 3 row is
// addressable, and its app name ("rodinia/hotspot"), where the first
// row of the app wins. A row ID beats an equal app name.
func indexBenches() map[string]bundledBench {
	rows := kernels.All()
	entry := func(b *kernels.Benchmark) bundledBench {
		return bundledBench{base: &b.Base, workloadKey: "bench:" + b.ID() + "/base"}
	}
	idx := make(map[string]bundledBench, 2*len(rows))
	for i := len(rows) - 1; i >= 0; i-- {
		idx[rows[i].App] = entry(rows[i])
	}
	for _, b := range rows {
		idx[b.ID()] = entry(b)
	}
	return idx
}

// statusClientClosed is the conventional (nginx) status for a request
// abandoned by its client; the response is moot, but batch entries and
// logs still record it.
const statusClientClosed = 499

// classify maps an error from the engine or request construction to
// its HTTP status and stable machine-readable code. This table IS the
// v2 error contract: one row per typed sentinel, pinned by tests.
func classify(err error) (status int, code string) {
	switch {
	// Deadline first: an expired per-job deadline wraps both
	// ErrCanceled and context.DeadlineExceeded.
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline_exceeded"
	case errors.Is(err, gpa.ErrCanceled):
		return statusClientClosed, "canceled"
	case errors.Is(err, gpa.ErrQueueFull):
		return http.StatusServiceUnavailable, "queue_full"
	case errors.Is(err, gpa.ErrShuttingDown):
		return http.StatusServiceUnavailable, "shutting_down"
	case errors.Is(err, gpa.ErrQuotaExceeded):
		return http.StatusTooManyRequests, "quota_exceeded"
	case errors.Is(err, gpa.ErrUnknownArch):
		return http.StatusBadRequest, "unknown_arch"
	case errors.Is(err, gpa.ErrAssemble):
		return http.StatusUnprocessableEntity, "assemble_failed"
	case errors.Is(err, gpa.ErrBadKernel):
		return http.StatusUnprocessableEntity, "bad_kernel"
	case errors.Is(err, gpa.ErrSimLimit):
		return http.StatusUnprocessableEntity, "sim_limit"
	case errors.Is(err, gpa.ErrInternal):
		return http.StatusInternalServerError, "internal"
	}
	return http.StatusInternalServerError, "internal"
}

// errInfo is the structured error payload of the v2 schema.
type errInfo struct {
	// Code is the stable machine-readable error class (see classify).
	Code string `json:"code"`
	// Status echoes the HTTP status the code maps to, so batch entries
	// (delivered inside a 200 envelope) stay self-describing.
	Status  int    `json:"status"`
	Message string `json:"message"`
}

// errorBody is the JSON body of every error response.
type errorBody struct {
	SchemaVersion string `json:"schemaVersion"`
	// TraceID echoes the request's trace ID so a failed call is
	// correlatable with its log line (stamped by writeJSON; empty for
	// batch entries, whose envelope carries the ID once).
	TraceID string  `json:"traceId,omitempty"`
	Error   errInfo `json:"error"`
}

func errorBodyOf(err error) (int, *errorBody) {
	status, code := classify(err)
	return status, &errorBody{
		SchemaVersion: gpa.ResultSchemaVersion,
		Error:         errInfo{Code: code, Status: status, Message: err.Error()},
	}
}

// requestErrorBody maps request-construction failures: typed errors go
// through the taxonomy (assemble_failed, unknown_arch, ...); anything
// untyped at this stage is a malformed request, not a server fault.
func requestErrorBody(err error) (int, *errorBody) {
	if status, _ := classify(err); status != http.StatusInternalServerError {
		return errorBodyOf(err)
	}
	return http.StatusBadRequest, &errorBody{
		SchemaVersion: gpa.ResultSchemaVersion,
		Error:         errInfo{Code: "bad_request", Status: http.StatusBadRequest, Message: err.Error()},
	}
}

// writeRequestError writes a requestErrorBody response.
func writeRequestError(w http.ResponseWriter, err error) {
	status, body := requestErrorBody(err)
	writeJSON(w, status, body)
}

func (s *server) handleAdvise(w http.ResponseWriter, r *http.Request) {
	s.handleOne(w, r, gpa.JobAdvise)
}

func (s *server) handleProfile(w http.ResponseWriter, r *http.Request) {
	s.handleOne(w, r, gpa.JobProfile)
}

// buildJob converts a kernel request to a job of the request's tenant,
// stamping the request's trace ID onto it.
func (s *server) buildJob(w http.ResponseWriter, tenant string, req *kernelRequest) (gpa.Job, error) {
	job, err := req.job(s)
	job.TraceID, job.Tenant = traceIDOf(w), tenant
	return job, err
}

// handleOne serves the fixed-kind single-kernel endpoints.
func (s *server) handleOne(w http.ResponseWriter, r *http.Request, kind gpa.JobKind) {
	var req kernelRequest
	if !s.decodeKernel(w, r, &req) {
		return
	}
	req.Kind = kind.String()
	job, err := s.buildJob(w, clientTenant(w, r), &req)
	if err != nil {
		writeRequestError(w, err)
		return
	}
	res := s.eng.Do(r.Context(), job)
	if res.Err != nil {
		s.writeTypedError(w, res.Err)
		return
	}
	s.writeResult(w, job, res)
}

// writeResult answers a single-kernel request without re-encoding what
// earlier requests already encoded: a small per-request head (trace ID,
// cached flag) appended into a pooled buffer, then the tail — advice,
// report text, profile — written as the engine hands it out: the bytes
// of the stage artifact itself, the same from a cold run, a memory hit
// and a restarted daemon's disk hit. The bytes are exactly what
// json.Encoder writes for job.Result(res).
func (s *server) writeResult(w http.ResponseWriter, job gpa.Job, res gpa.JobResult) {
	bufp := scratchPool.Get().(*[]byte)
	head, tail, err := job.EncodeResult((*bufp)[:0], res, traceIDOf(w))
	if err != nil {
		putScratch(bufp, (*bufp)[:0])
		s.writeTypedError(w, err)
		return
	}
	noteResult(w, job, res)
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h.Set("Content-Length", strconv.Itoa(len(head)+len(tail)))
	w.WriteHeader(http.StatusOK)
	// A failed write means the client went away; there is nobody to tell.
	_, _ = w.Write(head)
	_, _ = w.Write(tail)
	putScratch(bufp, head)
}

// batchRequest fans several kernel requests (mixed kinds allowed)
// through the engine concurrently.
type batchRequest struct {
	Requests fanOut[kernelRequest] `json:"requests"`
}

// envelope is the body of a batch or a sweep: one Result or one
// errorBody per entry, positionally aligned with the request list (or
// the swept models); the envelope itself is always 200 for an
// admissible request.
type envelope struct {
	SchemaVersion string `json:"schemaVersion"`
	// TraceID is the request's trace ID; entries share the envelope's.
	TraceID string `json:"traceId,omitempty"`
	Results []any  `json:"results"`
}

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !decode(w, r, &req) {
		return
	}
	if len(req.Requests) == 0 {
		writeBadRequest(w, fmt.Errorf("empty batch"))
		return
	}
	out := envelope{
		SchemaVersion: gpa.ResultSchemaVersion,
		Results:       make([]any, len(req.Requests)),
	}
	live := make([]int, 0, len(req.Requests))
	liveJobs := make([]gpa.Job, 0, len(req.Requests))
	tenant := clientTenant(w, r)
	for i := range req.Requests {
		job, err := s.buildJob(w, tenant, &req.Requests[i])
		if err != nil {
			_, body := requestErrorBody(err)
			out.Results[i] = body
			continue
		}
		// Batches are bulk work: they ride the batch lane, which queues
		// behind interactive requests and is shed first under overload.
		job.Lane = gpa.LaneBatch
		live = append(live, i)
		liveJobs = append(liveJobs, job)
	}
	results := s.eng.DoAll(r.Context(), liveJobs)
	for n, i := range live {
		out.Results[i] = resultEntry(liveJobs[n], results[n])
	}
	writeJSON(w, http.StatusOK, out)
}

// resultEntry is one slot of a batch or sweep envelope: the job's v2
// Result in the encoding writeResult serves — head and tail, which the
// envelope's encoder copies in place, so an entry decodes no stored
// artifact either — or the errorBody of whatever kept it from having
// one. Entries carry no trace ID; the envelope does.
func resultEntry(job gpa.Job, res gpa.JobResult) any {
	err := res.Err
	if err == nil {
		var head, tail []byte
		if head, tail, err = job.EncodeResult(nil, res, ""); err == nil {
			return json.RawMessage(append(head, tail...))
		}
	}
	_, body := errorBodyOf(err)
	return body
}

// sweepRequest advises one kernel on several architecture models.
type sweepRequest struct {
	kernelRequest
	// Archs lists model names (empty = every registered model).
	Archs fanOut[string] `json:"archs,omitempty"`
}

func (s *server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	if !decode(w, r, &req) {
		return
	}
	if req.Arch != "" {
		if len(req.Archs) > 0 {
			writeBadRequest(w, fmt.Errorf("set either arch or archs, not both"))
			return
		}
		// A lone arch is a one-model sweep.
		req.Archs = fanOut[string]{req.Arch}
	}
	var gpus []*arch.GPU // none named: Sweep takes every registered model
	for _, name := range req.Archs {
		g, err := gpa.LookupGPU(name)
		if err != nil {
			writeRequestError(w, err)
			return
		}
		gpus = append(gpus, g)
	}
	req.Arch = "" // per-arch options are set by Sweep
	job, err := s.buildJob(w, clientTenant(w, r), &req.kernelRequest)
	if err != nil {
		writeRequestError(w, err)
		return
	}
	jobs, results := s.eng.Sweep(r.Context(), job, gpus)
	out := envelope{
		SchemaVersion: gpa.ResultSchemaVersion,
		Results:       make([]any, len(jobs)),
	}
	for i, jg := range jobs {
		out.Results[i] = resultEntry(jg, results[i])
	}
	writeJSON(w, http.StatusOK, out)
}

// archInfo is one /v1/archs entry.
type archInfo struct {
	Name   string `json:"name"` // canonical key, accepted back in "arch"
	Model  string `json:"model"`
	SM     int    `json:"sm"`
	NumSMs int    `json:"numSMs"`
}

func (s *server) handleArchs(w http.ResponseWriter, r *http.Request) {
	var out []archInfo
	for _, g := range gpa.GPUs() {
		out = append(out, archInfo{
			Name: gpa.GPUName(g), Model: g.Name, SM: g.SM, NumSMs: g.NumSMs,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// statszSchemaVersion versions the /statsz payload shape so machine
// consumers (dashboards, scrapers such as bench/) can dispatch on it.
const statszSchemaVersion = "gpa-statsz/1"

// statszResponse is the /statsz payload: the engine's cache and
// scheduling counters plus server uptime.
type statszResponse struct {
	SchemaVersion string `json:"schemaVersion"`
	gpa.EngineStats
	UptimeSeconds float64 `json:"uptimeSeconds"`
}

func (s *server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, statszResponse{
		SchemaVersion: statszSchemaVersion,
		EngineStats:   s.eng.Stats(),
		UptimeSeconds: time.Since(s.started).Seconds(),
	})
}

// post/get enforce the endpoint's method.
func (s *server) post(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", fmt.Errorf("use POST"))
			return
		}
		h(w, r)
	}
}

func (s *server) get(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", fmt.Errorf("use GET"))
			return
		}
		h(w, r)
	}
}

// decode reads a bounded JSON body holding exactly one value; on
// failure it writes the error response and returns false.
func decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	return decodeFrom(w, http.MaxBytesReader(w, r.Body, maxBodyBytes), dst)
}

// decodeFrom is decode over the body reader rd.
func decodeFrom(w http.ResponseWriter, rd io.Reader, dst any) bool {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		writeBadRequest(w, fmt.Errorf("bad request body: %w", err))
		return false
	}
	// Token returns io.EOF bare once only whitespace is left.
	if _, err := dec.Token(); err != io.EOF {
		writeBadRequest(w, fmt.Errorf("bad request body: unexpected data after the JSON value"))
		return false
	}
	return true
}

// jsonContentType is every response's Content-Type value. One slice
// serves all of them: net/http reads header values and never mutates
// them, and a later Set would replace the slice, not write into it.
var jsonContentType = []string{"application/json"}

func writeJSON(w http.ResponseWriter, status int, v any) {
	// One choke point stamps the trace ID onto every body shape it
	// serves (writeResult appends its own) and captures the stable error
	// code for the request log and metrics. The bodies are freshly built
	// per request, so stamping never leaks a trace ID across requests.
	if ow, ok := w.(*obsWriter); ok {
		switch b := v.(type) {
		case *errorBody:
			b.TraceID = ow.trace
			ow.code = b.Error.Code
		case envelope:
			b.TraceID = ow.trace
			v = b
		}
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeTypedError maps err through the taxonomy table and writes the
// v2 error body; shed-load responses (429 quota, 503 queue_full /
// shutting_down) advertise a computed, jittered Retry-After instead of
// a static constant: quota rejections carry their bucket's refill
// time, a 503 gets a backlog-drain estimate.
func (s *server) writeTypedError(w http.ResponseWriter, err error) {
	status, body := errorBodyOf(err)
	if status == http.StatusServiceUnavailable || status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterFor(err)))
	}
	writeJSON(w, status, body)
}

// writeBadRequest reports malformed envelopes (bodies the taxonomy
// never sees: undecodable JSON, empty batches, conflicting fields).
func writeBadRequest(w http.ResponseWriter, err error) {
	writeError(w, http.StatusBadRequest, "bad_request", err)
}

func writeError(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, &errorBody{
		SchemaVersion: gpa.ResultSchemaVersion,
		Error:         errInfo{Code: code, Status: status, Message: err.Error()},
	})
}
