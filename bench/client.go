package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptrace"
	"sync"
	"sync/atomic"
	"time"
)

// target is one running gpad as the load generator sees it.
type target struct {
	base string
	hc   *http.Client
	ck   *checker
	// tr is non-nil for a traced slice: every request then records a
	// client.request span with ttfb, read_body and check children.
	tr *tracer
	// refBase is the reference server (ref.go) that the reference windows
	// of a timed slice are sent to.
	refBase string
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns: clients, MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients,
			DisableCompression: true,
		},
	}
}

// kept is a response body retained for a check that runs after the
// slice (library re-derivation of cold responses).
type kept struct {
	req  request
	body []byte
}

// tally is what one pass or timed slice produced. Each client fills a
// private tally; merge folds them together.
type tally struct {
	attempted, failed   int
	errs                []string
	latMs, lateMs       []float64
	ttfbMs, readMs      []float64
	checkUs             []float64
	reqBytes, respBytes int64
	// cyclesSum/cyclesN cover single-kernel responses among the first
	// cyclesWindow requests: an exact-repeat count for a given seed.
	cyclesSum, cyclesN int64
	// simCycles/hostMs pair every single-kernel response's simulated
	// cycles with the wall-clock cost of the run that produced it.
	simCycles, hostMs float64
	// uncachedMs collects elapsedMs of responses that ran the pipeline.
	uncachedMs []float64
	kept       []kept
	// elapsed is how long the pass took; for a timed slice, the sum of
	// its work windows.
	elapsed time.Duration
	// work and ref are the windows of a timed slice, in order: ref[k] and
	// ref[k+1] are the reference windows on either side of work[k].
	work, ref []window
}

// window is what one window of a timed slice measured: the latencies in
// ms of the requests it completed, their median and mean, and how long
// the window lasted.
type window struct {
	lat       []float64
	p50, mean float64
	dur       time.Duration
}

// maxErrs bounds how many failure messages a tally keeps; every failure
// is still counted.
const maxErrs = 8

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.errs) < maxErrs {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, e := range o.errs {
		if len(t.errs) < maxErrs {
			t.errs = append(t.errs, e)
		}
	}
	t.latMs = append(t.latMs, o.latMs...)
	t.lateMs = append(t.lateMs, o.lateMs...)
	t.ttfbMs = append(t.ttfbMs, o.ttfbMs...)
	t.readMs = append(t.readMs, o.readMs...)
	t.checkUs = append(t.checkUs, o.checkUs...)
	t.reqBytes += o.reqBytes
	t.respBytes += o.respBytes
	t.cyclesSum += o.cyclesSum
	t.cyclesN += o.cyclesN
	t.simCycles += o.simCycles
	t.hostMs += o.hostMs
	t.uncachedMs = append(t.uncachedMs, o.uncachedMs...)
	t.kept = append(t.kept, o.kept...)
}

// keepEvery/keepMax pick which cold advise responses are kept for
// re-derivation: every 32nd (offset 5) until 8 are held, which walks
// eight different rows because 32 and 26 are coprime enough.
const (
	keepEvery = 32
	keepMax   = 8
)

// caller is one client goroutine's state: its reusable read buffer, its
// private tally and (when traced) its private span buffer.
type caller struct {
	tg  *target
	buf bytes.Buffer
	t   tally
	sb  *spanBuf
	// refMs holds the latencies of the current reference window.
	refMs []float64
}

func newCaller(tg *target) *caller {
	c := &caller{tg: tg}
	if tg.tr != nil {
		c.sb = tg.tr.buf()
	}
	return c
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// do sends one request and judges the response. seq is the request's
// index in its pass; due is when it was scheduled (zero = now, the
// closed-loop case), and latency counts from there.
func (c *caller) do(ctx context.Context, req *request, seq int, learn bool, due time.Time) {
	c.t.attempted++
	start := time.Now()
	if due.IsZero() {
		due = start
	}
	var firstByte time.Time
	rctx := ctx
	if c.sb != nil {
		rctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			GotFirstResponseByte: func() { firstByte = time.Now() },
		})
	}
	hreq, err := http.NewRequestWithContext(rctx, http.MethodPost, c.tg.base+req.path, bytes.NewReader(req.body))
	if err != nil {
		c.t.fail("%s: %v", req.path, err)
		return
	}
	hreq.Header.Set("Content-Type", "application/json")
	if req.tenant != "" {
		hreq.Header.Set("X-Tenant-Id", req.tenant)
	}
	resp, err := c.tg.hc.Do(hreq)
	if err != nil {
		c.t.fail("%s: %v", req.path, err)
		return
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	done := time.Now()
	if err != nil {
		c.t.fail("%s: read body: %v", req.path, err)
		return
	}
	body := c.buf.Bytes()

	env, cerr := c.tg.ck.check(req, seq, learn, resp.StatusCode, body)
	checked := time.Now()
	if cerr != nil {
		c.t.fail("%s #%d: %v", req.path, seq, cerr)
	}
	c.t.latMs = append(c.t.latMs, ms(done.Sub(due)))
	c.t.reqBytes += int64(len(req.body))
	c.t.respBytes += int64(len(body))
	if env.cycles > 0 {
		if seq < cyclesWindow {
			c.t.cyclesSum += env.cycles
			c.t.cyclesN++
		}
		if env.elapsedMs > 0 {
			c.t.simCycles += float64(env.cycles)
			c.t.hostMs += env.elapsedMs
		}
		if !env.cached {
			c.t.uncachedMs = append(c.t.uncachedMs, env.elapsedMs)
		}
	}
	if !learn && req.kind == kindColdAdvise && cerr == nil &&
		seq%keepEvery == 5 && len(c.t.kept) < keepMax {
		c.t.kept = append(c.t.kept, kept{req: *req, body: append([]byte(nil), body...)})
	}
	if c.sb != nil {
		if firstByte.IsZero() {
			firstByte = done
		}
		// The root span's ID doubles as the request's trace ID: seq
		// repeats across rounds, IDs never do.
		root := c.sb.reserve()
		trace := root
		c.sb.add("client.ttfb", root, trace, start, firstByte)
		c.sb.add("client.read_body", root, trace, firstByte, done)
		c.sb.add("client.check", root, trace, done, checked)
		c.sb.addWithID(root, "client.request", 0, trace, start, checked)
		c.t.ttfbMs = append(c.t.ttfbMs, ms(firstByte.Sub(start)))
		c.t.readMs = append(c.t.readMs, ms(done.Sub(firstByte)))
		c.t.checkUs = append(c.t.checkUs, float64(checked.Sub(done))/float64(time.Microsecond))
	}
}

// postRef sends one request to the reference server and reads the
// response into the caller's buffer.
func (c *caller) postRef(ctx context.Context) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.tg.refBase+refPath, bytes.NewReader(refBody))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.tg.hc.Do(hreq)
	if err != nil {
		return err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err == nil && (resp.StatusCode != http.StatusOK || c.buf.Len() != refDocLen) {
		err = fmt.Errorf("status %d, %d bytes, want 200 and %d bytes", resp.StatusCode, c.buf.Len(), refDocLen)
	}
	return err
}

// doRef times one reference request. A reference that fails would
// silently move every relative metric, so a failure counts against the
// run.
func (c *caller) doRef(ctx context.Context) {
	start := time.Now()
	if err := c.postRef(ctx); err != nil {
		c.t.attempted++
		c.t.fail("reference: %v", err)
		return
	}
	c.refMs = append(c.refMs, ms(time.Since(start)))
}

// loop is the callers of one pass or timed slice. A timed slice is a
// chain of windows — reference, work, reference, work, ..., reference —
// with a barrier between them: every caller finishes its request before
// the next window starts, so the reference is never measured while gpad
// is still working and the other way round.
type loop struct {
	callers []*caller
	start   time.Time
	busy    time.Duration
	work    []window
	ref     []window
}

func newLoop(tg *target) *loop {
	l := &loop{callers: make([]*caller, clients), start: time.Now()}
	for j := range l.callers {
		l.callers[j] = newCaller(tg)
	}
	return l
}

// each runs body on every caller at once and returns when all are done.
func (l *loop) each(body func(c *caller)) {
	var wg sync.WaitGroup
	for _, c := range l.callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(c)
		}()
	}
	wg.Wait()
}

func newWindow(latMs []float64, dur time.Duration) window {
	return window{lat: latMs, p50: percentile(sortedCopy(latMs), 0.50), mean: mean(latMs), dur: dur}
}

// workWindow runs body on every caller and records what the requests it
// completed measured.
func (l *loop) workWindow(body func(c *caller)) {
	from := make([]int, len(l.callers))
	for j, c := range l.callers {
		from[j] = len(c.t.latMs)
	}
	t0 := time.Now()
	l.each(body)
	dur := time.Since(t0)
	var lat []float64
	for j, c := range l.callers {
		lat = append(lat, c.t.latMs[from[j]:]...)
	}
	l.busy += dur
	l.work = append(l.work, newWindow(lat, dur))
}

// refWindow drives the reference server with the same closed loop of
// callers for refWindowLen.
func (l *loop) refWindow(ctx context.Context) {
	t0 := time.Now()
	until := t0.Add(refWindowLen)
	l.each(func(c *caller) {
		for ctx.Err() == nil && time.Now().Before(until) {
			c.doRef(ctx)
		}
	})
	dur := time.Since(t0)
	var lat []float64
	for _, c := range l.callers {
		lat = append(lat, c.refMs...)
		c.refMs = c.refMs[:0]
	}
	l.ref = append(l.ref, newWindow(lat, dur))
}

// tally folds the callers' private tallies together.
func (l *loop) tally() *tally {
	t := &tally{elapsed: time.Since(l.start), work: l.work, ref: l.ref}
	if len(l.work) > 0 {
		t.elapsed = l.busy
	}
	for _, c := range l.callers {
		t.merge(&c.t)
		if c.sb != nil {
			c.sb.flush()
		}
	}
	return t
}

// runClosed drives a closed loop of `clients` callers, each sending its
// next request only after the previous reply. With n >= 0 the loop sends
// requests at(0..n-1) once each (a warm-up or populate pass); with n < 0
// it is a timed slice of dur: work windows of perWindow requests each —
// whole passes over the workload's rows, so every window does the same
// work — alternating with reference windows.
func runClosed(ctx context.Context, tg *target, at func(int) request, n int, dur time.Duration, perWindow int, learn bool) *tally {
	var next atomic.Int64
	l := newLoop(tg)
	// send deals the requests below hi to the callers.
	send := func(hi int) func(c *caller) {
		return func(c *caller) {
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= hi {
					return
				}
				req := at(i)
				c.do(ctx, &req, i, learn, time.Time{})
			}
		}
	}
	if n >= 0 {
		l.each(send(n))
		return l.tally()
	}
	deadline := l.start.Add(dur)
	l.refWindow(ctx)
	for hi := perWindow; ctx.Err() == nil && time.Now().Before(deadline); hi += perWindow {
		next.Store(int64(hi - perWindow))
		l.workWindow(send(hi))
		l.refWindow(ctx)
	}
	return l.tally()
}

// spinWindow is how long before a due time the dispatcher stops sleeping
// and polls the clock instead: a timer wake-up lands some hundreds of
// microseconds late, a poll of the last stretch does not. At
// mixed_open's rate the poll costs 4% of one core; wider windows (2 and
// 5 ms were tried) made lateness worse, because a thread that burns its
// time slice polling is preempted while gpad simulates on both cores.
const spinWindow = time.Millisecond

// waitUntil returns true at the absolute time due (false if ctx ends
// first): it sleeps until spinWindow before due, then polls the clock.
func waitUntil(ctx context.Context, due time.Time) bool {
	if d := time.Until(due) - spinWindow; d > 0 {
		t := time.NewTimer(d)
		select {
		case <-ctx.Done():
			t.Stop()
			return false
		case <-t.C:
		}
	}
	for time.Now().Before(due) {
		// Poll without yielding: a yielded dispatcher waits on the global
		// run queue behind the callers, and rounds with 40+ ms of lateness
		// were seen that way.
	}
	return ctx.Err() == nil
}

// arrival is one scheduled request of an open loop.
type arrival struct {
	i   int
	due time.Time
}

// runOpen drives an open loop in bursts: within a burst of w.perWindow
// arrivals a dispatcher releases arrival i at its due time whether or
// not earlier requests have finished, `clients` callers (one per
// connection) serve the released arrivals, and latency counts from the
// due time, so the wait a stall imposes on later arrivals is measured.
// How late the dispatcher itself ran is recorded as lateness. A burst is
// one work window: it ends when its period is over and every arrival has
// been answered, and a reference window follows.
func runOpen(ctx context.Context, tg *target, w *workload, dur time.Duration) *tally {
	l := newLoop(tg)
	deadline := l.start.Add(dur)
	var late []float64
	l.refWindow(ctx)
	for first := 0; ctx.Err() == nil && time.Now().Before(deadline); first += w.perWindow {
		// Sized to the burst, so the dispatcher never blocks on a busy
		// caller: that is what keeps the loop open.
		ch := make(chan arrival, w.perWindow)
		t0 := time.Now()
		go func() {
			defer close(ch)
			for k := 0; k < w.perWindow; k++ {
				due := t0.Add(w.due(k))
				if !waitUntil(ctx, due) {
					return
				}
				late = append(late, ms(time.Since(due)))
				ch <- arrival{i: first + k, due: due}
			}
		}()
		l.workWindow(func(c *caller) {
			for a := range ch {
				req := w.at(a.i)
				c.do(ctx, &req, a.i, false, a.due)
			}
			waitUntil(ctx, t0.Add(w.due(w.perWindow)))
		})
		l.refWindow(ctx)
	}
	t := l.tally()
	t.lateMs = late
	return t
}
