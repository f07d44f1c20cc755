package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded
// only in the benchmark's own code, around calls into each layer; spans
// inside the program are a later change.
type span struct {
	ID int64 `json:"id"`
	// Parent is the ID of the span that caused this one (0 = a root).
	Parent int64 `json:"parent"`
	// Trace groups the spans of one request or one layers-pass kernel.
	Trace   int64  `json:"trace"`
	Name    string `json:"name"`
	StartNs int64  `json:"startNs"`
	EndNs   int64  `json:"endNs"`
}

// tracer keeps every span in memory until the benchmark ends.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanBuf is one goroutine's private span list, merged into the tracer
// by flush so recording takes no lock on the request path.
type spanBuf struct {
	tr    *tracer
	spans []span
}

func (t *tracer) buf() *spanBuf { return &spanBuf{tr: t} }

// add records a finished span and returns its ID.
func (b *spanBuf) add(name string, parent, trace int64, start, end time.Time) int64 {
	id := b.reserve()
	b.addWithID(id, name, parent, trace, start, end)
	return id
}

// reserve hands out an ID before the span ends, so children recorded
// first can name their parent.
func (b *spanBuf) reserve() int64 { return b.tr.nextID.Add(1) }

func (b *spanBuf) addWithID(id int64, name string, parent, trace int64, start, end time.Time) {
	b.spans = append(b.spans, span{
		ID: id, Parent: parent, Trace: trace, Name: name,
		StartNs: start.Sub(b.tr.t0).Nanoseconds(), EndNs: end.Sub(b.tr.t0).Nanoseconds(),
	})
}

func (b *spanBuf) flush() {
	b.tr.mu.Lock()
	b.tr.spans = append(b.tr.spans, b.spans...)
	b.tr.mu.Unlock()
	b.spans = b.spans[:0]
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of its interval that its child spans cover. Children
// are clipped to the parent and overlapping children are counted once.
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, edge), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.EndNs - s.StartNs - covered
	}
	return self
}

// selfRow is one row of the per-layer self-time table.
type selfRow struct {
	Name         string  `json:"name"`
	Count        int     `json:"count"`
	SelfP50Us    float64 `json:"selfP50Us"`
	TotalP50Us   float64 `json:"totalP50Us"`
	SelfSumShare float64 `json:"selfSumShare"`
}

// selfTable folds spans into one row per span name (median self and
// total time, and the name's share of all self time), ordered by name.
func selfTable(spans []span) []selfRow {
	self := selfTimes(spans)
	type acc struct{ self, total []float64 }
	byName := map[string]*acc{}
	var all float64
	for _, s := range spans {
		a := byName[s.Name]
		if a == nil {
			a = &acc{}
			byName[s.Name] = a
		}
		a.self = append(a.self, float64(self[s.ID])/1e3)
		a.total = append(a.total, float64(s.EndNs-s.StartNs)/1e3)
		all += float64(self[s.ID]) / 1e3
	}
	rows := make([]selfRow, 0, len(byName))
	for name, a := range byName {
		var sum float64
		for _, v := range a.self {
			sum += v
		}
		rows = append(rows, selfRow{
			Name: name, Count: len(a.self),
			SelfP50Us: median(a.self), TotalP50Us: median(a.total),
			SelfSumShare: ratio(sum, all),
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}
