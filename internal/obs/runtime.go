package obs

import "runtime/metrics"

// runtimeExports is the curated set of Go runtime/metrics samples the
// /metrics endpoint exports. Curated rather than exhaustive: these are
// the gauges a gpad operator alerts on (goroutine leaks, heap growth,
// GC pressure, scheduler width); runtime/metrics histograms (such as
// /gc/pauses:seconds) and the long tail of allocator size classes stay
// out of the scrape.
var runtimeExports = []struct {
	sample  string // runtime/metrics key
	name    string // exported metric name
	help    string
	counter bool // monotonic counter vs point-in-time gauge
}{
	{"/sched/goroutines:goroutines", "go_goroutines",
		"Number of live goroutines.", false},
	{"/sched/gomaxprocs:threads", "go_gomaxprocs_threads",
		"Current GOMAXPROCS.", false},
	{"/memory/classes/heap/objects:bytes", "go_memory_heap_objects_bytes",
		"Bytes of live heap objects.", false},
	{"/memory/classes/total:bytes", "go_memory_total_bytes",
		"Total bytes of memory mapped by the Go runtime.", false},
	{"/gc/heap/allocs:objects", "go_gc_heap_allocs_objects_total",
		"Cumulative heap objects allocated.", true},
	{"/gc/heap/allocs:bytes", "go_gc_heap_allocs_bytes_total",
		"Cumulative heap bytes allocated.", true},
	{"/gc/cycles/total:gc-cycles", "go_gc_cycles_total",
		"Completed GC cycles.", true},
}

// WriteGoRuntime samples the curated runtime metrics in one
// metrics.Read call, into the writer's scratch, and renders them.
func WriteGoRuntime(p *PromWriter) {
	if len(p.samples) != len(runtimeExports) {
		p.samples = make([]metrics.Sample, len(runtimeExports))
		for i, e := range runtimeExports {
			p.samples[i].Name = e.sample
		}
	}
	metrics.Read(p.samples)
	for i, s := range p.samples {
		e := runtimeExports[i]
		var v float64
		switch s.Value.Kind() {
		case metrics.KindUint64:
			v = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			v = s.Value.Float64()
		default:
			continue // unsupported kind on this Go version: drop the sample
		}
		typ := "gauge"
		if e.counter {
			typ = "counter"
		}
		p.Header(e.name, e.help, typ)
		p.Metric(e.name, nil, v)
	}
}
