package main

// Operational observability for gpad: the trace-ID middleware, the
// structured request log, the Prometheus /metrics endpoint, and the
// upgraded /healthz. Everything here is transport-level — trace IDs
// and timing never reach the engine's cache digest or any stage key
// (pinned by TestTraceIDExcludedFromDigest), so two requests differing
// only in observability metadata still share one simulation and return
// byte-identical results.

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"gpa"
	"gpa/internal/obs"
)

// traceHeader is the request/response header carrying the trace ID.
const traceHeader = "X-Request-Id"

// maxTraceIDLen caps accepted client trace IDs; longer ones are
// replaced, not truncated (a truncated ID correlates with nothing).
const maxTraceIDLen = 64

// clientTraceID returns the client-supplied trace ID when it is safe
// to echo into logs and headers, else mints a fresh one.
func clientTraceID(r *http.Request) string {
	if id := r.Header.Get(traceHeader); safeID(id, maxTraceIDLen) {
		return id
	}
	return newTraceID()
}

// safeID reports whether a client-supplied ID is safe to echo into
// logs, headers and metric labels: non-empty, at most maxLen bytes, and
// printable with no separator that could forge a log field.
func safeID(id string, maxLen int) bool {
	if id == "" || len(id) > maxLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.', c == ':':
		default:
			return false
		}
	}
	return true
}

// newTraceID mints a 16-hex-char random trace ID. Randomness here is
// fine precisely because trace IDs never feed a digest: they exist to
// correlate one request's log lines, response header, and result body.
func newTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; degrade to
		// a constant rather than take the serving path down.
		return "trace-unavailable"
	}
	var id [2 * len(b)]byte
	hex.Encode(id[:], b[:])
	return string(id[:])
}

// obsWriter wraps a ResponseWriter to capture what the access log and
// request metrics need: the status actually written, the stable error
// code (stamped by writeJSON when the body is an error), and any
// handler-annotated attributes (arch, cache key, disposition).
type obsWriter struct {
	http.ResponseWriter
	trace  string
	status int
	code   string
	// logs is false when no level this request could log at is enabled;
	// handlers then skip collecting attrs nobody will read.
	logs  bool
	attrs []slog.Attr
}

func (w *obsWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// note attaches an attribute to the request's log line when w is the
// middleware's writer and the line can be logged (no-op otherwise, so
// handlers stay testable with a bare ResponseRecorder).
func note(w http.ResponseWriter, a slog.Attr) {
	if ow, ok := w.(*obsWriter); ok && ow.logs {
		ow.attrs = append(ow.attrs, a)
	}
}

// traceIDOf reports the request's trace ID ("" outside the middleware).
func traceIDOf(w http.ResponseWriter) string {
	if ow, ok := w.(*obsWriter); ok {
		return ow.trace
	}
	return ""
}

// quietRoutes are scrape/probe endpoints logged at Debug instead of
// Info so a 10s Prometheus interval does not drown the request log.
var quietRoutes = map[string]bool{
	"/metrics": true, "/healthz": true, "/statsz": true, "/v1/statsz": true,
}

// knownRoutes is the closed label set for the per-route metrics:
// unknown paths collapse into "other" so request-line garbage cannot
// mint unbounded label values.
var knownRoutes = map[string]bool{
	"/v1/advise": true, "/v1/profile": true, "/v1/batch": true,
	"/v1/sweep": true, "/v1/archs": true,
	"/metrics": true, "/healthz": true, "/statsz": true, "/v1/statsz": true,
}

func routeLabel(path string) string {
	if knownRoutes[path] {
		return path
	}
	return "other"
}

// withObs wraps the whole mux with the per-request observability
// envelope: trace-ID accept/mint + response header, status and error
// code capture, request metrics, and one structured log line per
// request.
func (s *server) withObs(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ow := &obsWriter{
			ResponseWriter: w, trace: clientTraceID(r), status: http.StatusOK,
			// Warn is the highest level a request line is logged at.
			logs: s.log.Enabled(r.Context(), slog.LevelWarn),
		}
		ow.Header().Set(traceHeader, ow.trace)
		next.ServeHTTP(ow, r)

		elapsed := time.Since(start)
		route := routeLabel(r.URL.Path)
		s.metrics.Record(route, ow.status, ow.code, elapsed)

		level := slog.LevelInfo
		switch {
		case ow.status >= 500:
			level = slog.LevelWarn
		case quietRoutes[r.URL.Path]:
			level = slog.LevelDebug
		}
		if !s.log.Enabled(r.Context(), level) {
			return
		}
		attrs := make([]slog.Attr, 0, 8+len(ow.attrs))
		attrs = append(attrs,
			slog.String("trace", ow.trace),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", ow.status),
			slog.Float64("durationMs", float64(elapsed)/float64(time.Millisecond)),
		)
		if ow.code != "" {
			attrs = append(attrs, slog.String("code", ow.code))
		}
		attrs = append(attrs, ow.attrs...)
		s.log.LogAttrs(r.Context(), level, "request", attrs...)
	})
}

// noteResult annotates the log line with the job outcome the operator
// greps for: architecture, truncated cache key, and whether the cache
// (or a coalesced flight) served it.
func noteResult(w http.ResponseWriter, job gpa.Job, res gpa.JobResult) {
	if ow, ok := w.(*obsWriter); !ok || !ow.logs {
		return
	}
	note(w, slog.String("arch", job.Arch()))
	if len(res.Key) >= 12 {
		note(w, slog.String("key", res.Key[:12]))
	}
	note(w, slog.Bool("cached", res.Cached))
}

// engineGauges are the Stats fields that are point-in-time gauges;
// every other numeric field is a monotonic counter and gets the
// Prometheus _total suffix.
var engineGauges = map[string]bool{
	"inflight": true, "queued": true, "queueCapacity": true,
	"workers": true, "allocsPerJob": true,
	"interactiveQueued": true, "batchQueued": true, "brownoutLevel": true,
}

// writeEngineMetrics renders every EngineStats field as
// gpa_engine_<snake_case_name>[_total]. Driving the export off the
// JSON encoding keeps /metrics and /statsz mechanically in sync: a new
// counter added to service.Stats appears in both with no gpad change
// (pinned by TestMetricsMatchesStatsz).
func writeEngineMetrics(p *obs.PromWriter, st gpa.EngineStats) {
	raw, err := json.Marshal(st)
	if err != nil {
		return
	}
	var fields map[string]any
	if err := json.Unmarshal(raw, &fields); err != nil {
		return
	}
	names := make([]string, 0, len(fields))
	for name := range fields {
		if _, ok := fields[name].(float64); ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		v := fields[name].(float64)
		metric := "gpa_engine_" + obs.MetricName(name)
		if engineGauges[name] {
			p.Gauge(metric, "Engine gauge "+name+"; see /statsz.", nil, v)
		} else {
			p.Counter(metric+"_total", "Engine counter "+name+"; see /statsz.", nil, v)
		}
	}
}

// buildVersion reports the module's build version ("(devel)" for plain
// go build) for /healthz and the gpa_build_info metric.
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "unknown"
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := obs.NewPromWriter(w)
	p.Gauge("gpa_build_info",
		"Build metadata; the value is always 1.",
		[]obs.Label{{Name: "version", Value: s.version}, {Name: "go", Value: runtime.Version()}}, 1)
	p.Gauge("gpa_uptime_seconds", "Seconds since the server started.",
		nil, time.Since(s.started).Seconds())
	// One snapshot for both, so the engine and tenant series of a scrape
	// agree with each other.
	st := s.eng.Stats()
	writeEngineMetrics(p, st)
	writeTenantMetrics(p, st)
	obs.WriteStageLatency(p, s.eng.StageLatency())
	s.metrics.Write(p)
	obs.WriteGoRuntime(p)
}

// storeHealth is the /healthz view of the persistent artifact store.
type storeHealth struct {
	// Dir is the resolved blob root (versioned, schema-keyed).
	Dir string `json:"dir"`
	// Writable reports whether a probe blob could be created just now;
	// false means the store has degraded to read-only pass-through.
	Writable bool `json:"writable"`
	// Error carries the probe failure when Writable is false.
	Error string `json:"error,omitempty"`
	// CorruptBlobs counts checksum/decode failures since start (each
	// was recomputed, never served).
	CorruptBlobs int64 `json:"corruptBlobs"`
}

// healthzResponse is the /healthz payload. The endpoint always answers
// 200 while the process serves — liveness — with Status degrading to
// "degraded" when the artifact store stops accepting writes, so
// dashboards see the difference without probes killing the pod.
type healthzResponse struct {
	Status        string       `json:"status"`
	Version       string       `json:"version"`
	GoVersion     string       `json:"goVersion"`
	UptimeSeconds float64      `json:"uptimeSeconds"`
	Store         *storeHealth `json:"store,omitempty"`
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	out := healthzResponse{
		Status:        "ok",
		Version:       s.version,
		GoVersion:     runtime.Version(),
		UptimeSeconds: time.Since(s.started).Seconds(),
	}
	if s.store != nil {
		sh := &storeHealth{
			Dir:          s.store.Dir(),
			Writable:     true,
			CorruptBlobs: s.store.Stats().Corrupt,
		}
		if err := s.store.CheckWritable(); err != nil {
			sh.Writable = false
			sh.Error = err.Error()
			out.Status = "degraded"
		}
		out.Store = sh
	}
	writeJSON(w, http.StatusOK, out)
}
