package obs

import (
	"bufio"
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01, 0.1})
	h.Observe(500 * time.Microsecond) // bucket 0 (≤1ms)
	h.Observe(1 * time.Millisecond)   // bucket 0 (boundary is inclusive)
	h.Observe(5 * time.Millisecond)   // bucket 1
	h.Observe(50 * time.Millisecond)  // bucket 2
	h.Observe(2 * time.Second)        // +Inf bucket

	s := h.Snapshot()
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Count != 5 {
		t.Errorf("count = %d, want 5", s.Count)
	}
	wantSum := 0.0005 + 0.001 + 0.005 + 0.05 + 2
	if diff := s.SumSeconds - wantSum; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("sum = %v, want %v", s.SumSeconds, wantSum)
	}
}

func TestNilHistogramAndStageLatencySafe(t *testing.T) {
	var h *Histogram
	h.Observe(time.Millisecond) // must not panic
	if s := h.Snapshot(); s.Count != 0 {
		t.Errorf("nil snapshot count = %d", s.Count)
	}
	var l *StageLatency
	l.Observe(StageSimulate, time.Millisecond)
	l.Since(StageAdvise, time.Now())
	if l.Histogram(StageBlame) != nil {
		t.Error("nil StageLatency returned a histogram")
	}
}

func TestStageLatencyRouting(t *testing.T) {
	l := NewStageLatency()
	l.Observe(StageSimulate, 3*time.Millisecond)
	l.Observe(StageSimulate, 4*time.Millisecond)
	l.Observe(StageAdvise, time.Millisecond)
	if n := l.Histogram(StageSimulate).Snapshot().Count; n != 2 {
		t.Errorf("simulate count = %d, want 2", n)
	}
	if n := l.Histogram(StageAdvise).Snapshot().Count; n != 1 {
		t.Errorf("advise count = %d, want 1", n)
	}
	if n := l.Histogram(StageAssemble).Snapshot().Count; n != 0 {
		t.Errorf("assemble count = %d, want 0", n)
	}
	// The enum's label names are the documented metric label values.
	names := map[Stage]string{
		StageAssemble: "assemble", StageSimulate: "simulate",
		StageBlame: "blame", StageAdvise: "advise",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("Stage(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestMetricName(t *testing.T) {
	cases := map[string]string{
		"hits":              "hits",
		"stageEvictions":    "stage_evictions",
		"ffCyclesSkipped":   "ff_cycles_skipped",
		"storeCorrupt":      "store_corrupt",
		"allocsPerJob":      "allocs_per_job",
		"uptimeSeconds":     "uptime_seconds",
		"poolGets":          "pool_gets",
		"ffPeriodsDetected": "ff_periods_detected",
	}
	for in, want := range cases {
		if got := MetricName(in); got != want {
			t.Errorf("MetricName(%q) = %q, want %q", in, got, want)
		}
	}
}

// sampleLine matches a Prometheus text-format sample line.
var sampleLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? ((\+|-)?(Inf|[0-9.eE+-]+))$`)

// checkExposition asserts every line of a scrape is either a comment
// or a well-formed sample line and returns the sample lines.
func checkExposition(t *testing.T, text string) []string {
	t.Helper()
	var samples []string
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
			continue
		}
		samples = append(samples, line)
	}
	return samples
}

func TestPromWriterFormat(t *testing.T) {
	var b strings.Builder
	p := NewPromWriter(&b)
	p.Counter("gpa_engine_hits_total", "Cache hits.", nil, 42)
	p.Gauge("gpa_engine_inflight", "In-flight jobs.", []Label{{"pool", `a"b\c`}}, 3)
	h := NewHistogram([]float64{0.001, 0.01})
	h.Observe(500 * time.Microsecond)
	h.Observe(5 * time.Millisecond)
	h.Observe(time.Second)
	p.HistogramFamily("gpa_stage_duration_seconds", "Stage latency.",
		[]Label{{"stage", "simulate"}}, h.Snapshot())
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# TYPE gpa_engine_hits_total counter",
		"gpa_engine_hits_total 42",
		`gpa_engine_inflight{pool="a\"b\\c"} 3`,
		`gpa_stage_duration_seconds_bucket{stage="simulate",le="0.001"} 1`,
		`gpa_stage_duration_seconds_bucket{stage="simulate",le="0.01"} 2`,
		`gpa_stage_duration_seconds_bucket{stage="simulate",le="+Inf"} 3`,
		`gpa_stage_duration_seconds_count{stage="simulate"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	checkExposition(t, out)
}

func TestRequestMetrics(t *testing.T) {
	m := NewRequestMetrics()
	m.Record("/v1/advise", 200, "", 2*time.Millisecond)
	m.Record("/v1/advise", 200, "", 3*time.Millisecond)
	m.Record("/v1/advise", 503, "queue_full", 10*time.Microsecond)
	m.Record("/metrics", 200, "", time.Millisecond)

	if n := m.CountFor("/v1/advise", 200, ""); n != 2 {
		t.Errorf("advise 200 count = %d, want 2", n)
	}
	if n := m.CountFor("/v1/advise", 503, "queue_full"); n != 1 {
		t.Errorf("advise queue_full count = %d, want 1", n)
	}

	var b strings.Builder
	p := NewPromWriter(&b)
	m.Write(p)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`gpa_http_requests_total{route="/v1/advise",status="200",code=""} 2`,
		`gpa_http_requests_total{route="/v1/advise",status="503",code="queue_full"} 1`,
		`gpa_http_request_duration_seconds_count{route="/v1/advise"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("request metrics missing %q:\n%s", want, out)
		}
	}
	checkExposition(t, out)
}

func TestRequestMetricsConcurrent(t *testing.T) {
	m := NewRequestMetrics()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m.Record(fmt.Sprintf("/r%d", g%3), 200, "", time.Microsecond)
				if i%10 == 0 {
					var b strings.Builder
					m.Write(NewPromWriter(&b))
				}
			}
		}(g)
	}
	wg.Wait()
	total := int64(0)
	for _, v := range m.Counts() {
		total += v
	}
	if total != 8*200 {
		t.Errorf("total recorded = %d, want %d", total, 8*200)
	}
}

func TestWriteGoRuntime(t *testing.T) {
	var b strings.Builder
	p := NewPromWriter(&b)
	WriteGoRuntime(p)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"go_goroutines ", "go_gomaxprocs_threads ",
		"go_gc_heap_allocs_objects_total "} {
		if !strings.Contains(out, want) {
			t.Errorf("runtime metrics missing %q:\n%s", want, out)
		}
	}
	checkExposition(t, out)
}
