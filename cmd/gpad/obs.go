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
	"log/slog"
	"net/http"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
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

// engineField is one numeric EngineStats field as /metrics renders it.
type engineField struct {
	key   string // the field's /statsz JSON name
	index int    // its index in EngineStats
	name  string // gpa_engine_<snake_case key>[_total]
	help  string
	typ   string // "counter" or "gauge"
}

// engineFields is every numeric EngineStats field, sorted by JSON name,
// read once from the struct's json tags: a counter added to
// service.Stats appears at /metrics and /statsz alike with no gpad
// change (pinned by TestMetricsMatchesStatsz and
// TestEngineFieldsCoverStatsz).
var engineFields = func() []engineField {
	t := reflect.TypeFor[gpa.EngineStats]()
	var fields []engineField
	for i := range t.NumField() {
		sf := t.Field(i)
		key, _, _ := strings.Cut(sf.Tag.Get("json"), ",")
		if !sf.IsExported() || key == "-" {
			continue
		}
		if key == "" {
			key = sf.Name
		}
		if z := reflect.Zero(sf.Type); !z.CanInt() && !z.CanUint() && !z.CanFloat() {
			continue // json.Marshal emits no number for it (Tenants is a map)
		}
		f := engineField{key: key, index: i, name: "gpa_engine_" + obs.MetricName(key)}
		if engineGauges[key] {
			f.help, f.typ = "Engine gauge "+key+"; see /statsz.", "gauge"
		} else {
			f.name += "_total"
			f.help, f.typ = "Engine counter "+key+"; see /statsz.", "counter"
		}
		fields = append(fields, f)
	}
	slices.SortFunc(fields, func(a, b engineField) int { return strings.Compare(a.key, b.key) })
	return fields
}()

// writeEngineMetrics renders every numeric EngineStats field as
// gpa_engine_<snake_case_name>[_total], in JSON-name order.
func writeEngineMetrics(p *obs.PromWriter, st *gpa.EngineStats) {
	v := reflect.ValueOf(st).Elem()
	for _, f := range engineFields {
		var x float64
		switch fv := v.Field(f.index); {
		case fv.CanInt():
			x = float64(fv.Int())
		case fv.CanUint():
			x = float64(fv.Uint())
		default:
			x = fv.Float()
		}
		p.Header(f.name, f.help, f.typ)
		p.Metric(f.name, nil, x)
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

// scrapePool holds the writers /metrics renders into, so a steady
// scraper reuses one buffer (and its scratch) instead of growing a new
// one each scrape.
var scrapePool = sync.Pool{New: func() any { return new(obs.PromWriter) }}

// handleMetrics renders the whole exposition into a pooled buffer and
// writes it once, with its Content-Length.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	p := scrapePool.Get().(*obs.PromWriter)
	p.Reset()
	// One snapshot for both, so the engine and tenant series of a scrape
	// agree with each other.
	st := s.eng.Stats()
	writeScrape(p, []obs.Label{{Name: "version", Value: s.version}, {Name: "go", Value: runtime.Version()}},
		time.Since(s.started).Seconds(), &st, s.eng.StageLatency(), s.metrics)
	obs.WriteGoRuntime(p)
	h := w.Header()
	h.Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	h.Set("Content-Length", strconv.Itoa(len(p.Bytes())))
	w.Write(p.Bytes())
	scrapePool.Put(p)
}

// writeScrape renders everything a scrape carries but the Go runtime
// gauges: build info, uptime, the engine and tenant series of one
// Stats snapshot, stage latency and the request metrics.
func writeScrape(p *obs.PromWriter, build []obs.Label, uptime float64, st *gpa.EngineStats,
	stages *obs.StageLatency, reqs *obs.RequestMetrics) {
	p.Gauge("gpa_build_info", "Build metadata; the value is always 1.", build, 1)
	p.Gauge("gpa_uptime_seconds", "Seconds since the server started.", nil, uptime)
	writeEngineMetrics(p, st)
	writeTenantMetrics(p, st)
	obs.WriteStageLatency(p, stages)
	reqs.Write(p)
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
