package obs

import (
	"cmp"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one Prometheus label pair.
type Label struct {
	Name  string
	Value string
}

// PromWriter renders metrics in the Prometheus text exposition format
// (version 0.0.4) by appending to one byte buffer; Bytes is the
// exposition rendered since the last Reset. The zero value is ready to
// use. A PromWriter also carries the scratch a scrape needs (histogram
// bucket counts, runtime samples), so a pooled writer renders a whole
// scrape without allocating. It is not safe for concurrent use.
type PromWriter struct {
	buf     []byte
	counts  []int64
	samples []metrics.Sample
}

// Bytes returns the rendered exposition. It aliases the writer's
// buffer: it is valid until the next Reset.
func (p *PromWriter) Bytes() []byte { return p.buf }

// Reset empties the writer and keeps its buffer for the next scrape.
func (p *PromWriter) Reset() { p.buf = p.buf[:0] }

// Header writes the # HELP and # TYPE lines for a metric family.
func (p *PromWriter) Header(name, help, typ string) {
	b := append(p.buf, "# HELP "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = appendEscaped(b, help, false)
	b = append(b, "\n# TYPE "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, typ...)
	p.buf = append(b, '\n')
}

// Metric writes one sample line. An empty label list renders a bare
// metric name.
func (p *PromWriter) Metric(name string, labels []Label, v float64) {
	b := appendSample(p.buf, name, "", labels)
	b = strconv.AppendFloat(b, v, 'g', -1, 64)
	p.buf = append(b, '\n')
}

// Gauge writes a complete single-sample gauge family.
func (p *PromWriter) Gauge(name, help string, labels []Label, v float64) {
	p.Header(name, help, "gauge")
	p.Metric(name, labels, v)
}

// Histogram writes one histogram series (bucket lines with cumulative
// counts, then _sum and _count) under an already-written Header.
func (p *PromWriter) Histogram(name string, labels []Label, s HistogramSnapshot) {
	b := p.buf
	cum := int64(0)
	for i, c := range s.Counts {
		cum += c
		b = append(b, name...)
		b = append(b, "_bucket"...)
		b = appendLabels(b, labels)
		if len(labels) > 0 {
			b = append(b, ',')
		}
		b = append(b, `le="`...)
		if i < len(s.Bounds) {
			b = strconv.AppendFloat(b, s.Bounds[i], 'g', -1, 64)
		} else {
			b = append(b, "+Inf"...)
		}
		b = append(b, `"} `...)
		b = strconv.AppendInt(b, cum, 10)
		b = append(b, '\n')
	}
	b = appendSample(b, name, "_sum", labels)
	b = strconv.AppendFloat(b, s.SumSeconds, 'g', -1, 64)
	b = appendSample(append(b, '\n'), name, "_count", labels)
	b = strconv.AppendInt(b, s.Count, 10)
	p.buf = append(b, '\n')
}

// histogramOf writes h's series from a snapshot taken into the
// writer's scratch counts.
func (p *PromWriter) histogramOf(name string, labels []Label, h *Histogram) {
	s := h.snapshot(p.counts[:0])
	p.counts = s.Counts
	p.Histogram(name, labels, s)
}

// appendSample appends a sample line's name, suffix and label set, and
// the space before its value.
func appendSample(b []byte, name, suffix string, labels []Label) []byte {
	b = append(b, name...)
	b = append(b, suffix...)
	if len(labels) > 0 {
		b = append(appendLabels(b, labels), '}')
	}
	return append(b, ' ')
}

// appendLabels appends an opening brace and the label pairs, leaving
// the set open so a histogram bucket can add its le label.
func appendLabels(b []byte, labels []Label) []byte {
	b = append(b, '{')
	for i, l := range labels {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, l.Name...)
		b = append(b, `="`...)
		b = appendEscaped(b, l.Value, true)
		b = append(b, '"')
	}
	return b
}

// appendEscaped appends v with the exposition format's escapes: a
// backslash and a newline always, a double quote only in a label value
// (quote set) — HELP text keeps its quotes as they are.
func appendEscaped(b []byte, v string, quote bool) []byte {
	start := 0
	for i := 0; i < len(v); i++ {
		var esc string
		switch v[i] {
		case '\\':
			esc = `\\`
		case '\n':
			esc = `\n`
		case '"':
			if !quote {
				continue
			}
			esc = `\"`
		default:
			continue
		}
		b = append(b, v[start:i]...)
		b = append(b, esc...)
		start = i + 1
	}
	return append(b, v[start:]...)
}

// MetricName converts a camelCase counter name (the /statsz JSON field
// names) to a Prometheus snake_case name component: "storeCorrupt" →
// "store_corrupt", "ffCyclesSkipped" → "ff_cycles_skipped". Runs of
// capitals collapse into one word ("allocsPerJobMS" would become
// "allocs_per_job_ms"), which keeps acronyms readable.
func MetricName(camel string) string {
	var b strings.Builder
	for i, r := range camel {
		if r >= 'A' && r <= 'Z' {
			if i > 0 && (camel[i-1] < 'A' || camel[i-1] > 'Z') {
				b.WriteByte('_')
			}
			b.WriteByte(byte(r) + ('a' - 'A'))
			continue
		}
		b.WriteRune(r)
	}
	return b.String()
}

// RequestMetrics aggregates HTTP serving metrics: a request counter
// labeled by route, status, and stable error code, and a per-route
// latency histogram. Routes come from the fixed mux table (never raw
// URLs), so cardinality is bounded by construction; maxSeries is a
// backstop against a bug violating that.
//
// Record finds a series through the maps; Write renders the same
// series from lists kept in render order. Record replaces a list when
// it adds a series and never edits one in place, so Write renders the
// list it read under the lock without holding it, sorting or copying.
type RequestMetrics struct {
	mu     sync.Mutex
	counts map[requestKey]*atomic.Int64
	dur    map[string]*Histogram
	series []requestSeries // counts, sorted by requestKey
	routes []routeSeries   // dur, sorted by route
}

const maxSeries = 4096

type requestKey struct {
	Route  string
	Status int
	Code   string
}

// requestSeries is one request counter with its labels rendered once.
type requestSeries struct {
	key    requestKey
	labels [3]Label
	n      *atomic.Int64
}

// routeSeries is one route's latency histogram with its label.
type routeSeries struct {
	labels [1]Label
	h      *Histogram
}

// NewRequestMetrics builds an empty recorder.
func NewRequestMetrics() *RequestMetrics {
	return &RequestMetrics{
		counts: make(map[requestKey]*atomic.Int64),
		dur:    make(map[string]*Histogram),
	}
}

// Record accounts one served request. code is the stable error code
// ("" for success, "queue_full", "deadline_exceeded", ...); failures
// are counted with the same taxonomy the response body carries, so
// metrics, logs, and /statsz aggregates can never disagree about what
// an error was.
func (m *RequestMetrics) Record(route string, status int, code string, d time.Duration) {
	if m == nil {
		return
	}
	k := requestKey{route, status, code}
	m.mu.Lock()
	n := m.counts[k]
	if n == nil && len(m.counts) < maxSeries {
		n = new(atomic.Int64)
		m.counts[k] = n
		i, _ := slices.BinarySearchFunc(m.series, k, func(s requestSeries, k requestKey) int {
			a := s.key
			return cmp.Or(strings.Compare(a.Route, k.Route), cmp.Compare(a.Status, k.Status), strings.Compare(a.Code, k.Code))
		})
		m.series = slices.Insert(slices.Clip(m.series), i, requestSeries{key: k, n: n, labels: [3]Label{
			{"route", route}, {"status", strconv.Itoa(status)}, {"code", code},
		}})
	}
	h := m.dur[route]
	if h == nil && len(m.dur) < maxSeries {
		h = NewHistogram(nil)
		m.dur[route] = h
		i, _ := slices.BinarySearchFunc(m.routes, route, func(s routeSeries, r string) int { return strings.Compare(s.labels[0].Value, r) })
		m.routes = slices.Insert(slices.Clip(m.routes), i, routeSeries{labels: [1]Label{{"route", route}}, h: h})
	}
	m.mu.Unlock()
	if n != nil {
		n.Add(1)
	}
	h.Observe(d)
}

// Write renders the request counter and per-route latency histograms.
// Series are sorted so scrapes are stable and diffable.
func (m *RequestMetrics) Write(p *PromWriter) {
	m.mu.Lock()
	series, routes := m.series, m.routes
	m.mu.Unlock()

	p.Header("gpa_http_requests_total",
		"Requests served, by route, HTTP status, and stable error code (empty code = success).",
		"counter")
	for i := range series {
		p.Metric("gpa_http_requests_total", series[i].labels[:], float64(series[i].n.Load()))
	}
	p.Header("gpa_http_request_duration_seconds",
		"End-to-end request latency by route, cache hits and errors included.",
		"histogram")
	for i := range routes {
		p.histogramOf("gpa_http_request_duration_seconds", routes[i].labels[:], routes[i].h)
	}
}

// WriteStageLatency renders the per-stage pipeline histograms as one
// gpa_stage_duration_seconds family labeled by stage.
func WriteStageLatency(p *PromWriter, l *StageLatency) {
	p.Header("gpa_stage_duration_seconds",
		"Pipeline stage execution latency (assemble, simulate, blame, advise); recorded only when the stage actually runs.",
		"histogram")
	if l == nil {
		return
	}
	for s := Stage(0); s < NumStages; s++ {
		p.histogramOf("gpa_stage_duration_seconds", []Label{{"stage", s.String()}}, l.h[s])
	}
}
