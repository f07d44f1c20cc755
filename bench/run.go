package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	// gpadBin is the built daemon; tmpDir holds the per-round store
	// directories; refBase is the run's reference server.
	gpadBin, tmpDir, refBase string
	seed                     uint64
	// slice is the timed length of one round; plan says, per round,
	// whether the client is traced.
	slice time.Duration
	plan  []bool
}

// roundResult is one (workload, round): a fresh gpad, its fixture, one
// timed slice, one scrape.
type roundResult struct {
	traced            bool
	e2e, layer        map[string]float64
	attempted, failed int
	errs              []string
}

// runRound measures one round of w against a fresh gpad process.
func runRound(ctx context.Context, cfg *config, ck *checker, w *workload, traced bool, tr *tracer) (*roundResult, error) {
	rr := &roundResult{traced: traced}
	note := func(t *tally) {
		rr.attempted += t.attempted
		rr.failed += t.failed
		rr.errs = append(rr.errs, t.errs...)
	}
	violate := func(format string, args ...any) {
		rr.failed++
		rr.errs = append(rr.errs, fmt.Sprintf(format, args...))
	}

	setupStart := time.Now()
	storeDir, err := os.MkdirTemp(cfg.tmpDir, "store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(storeDir)
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()

	if len(w.populate) > 0 {
		// A throwaway gpad writes the corpus to disk; the measured gpad
		// then starts over the same directory with empty memory.
		d0, err := startDaemon(ctx, cfg.gpadBin, gpadArgs(storeDir, 0))
		if err != nil {
			return nil, err
		}
		pop := runClosed(ctx, &target{base: d0.base, hc: hc, ck: ck},
			func(i int) request { return w.populate[i] }, len(w.populate), 0, 0, true)
		hc.CloseIdleConnections()
		d0.stop()
		note(pop)
	}
	d, err := startDaemon(ctx, cfg.gpadBin, gpadArgs(storeDir, w.maxQueue))
	if err != nil {
		return nil, err
	}
	defer d.stop()
	tg := &target{base: d.base, hc: hc, ck: ck, refBase: cfg.refBase}
	note(runClosed(ctx, tg, func(i int) request { return w.warmup[i] }, len(w.warmup), 0, 0, true))
	setup := time.Since(setupStart)

	before, err := d.scrape(ctx, hc)
	if err != nil {
		return nil, fmt.Errorf("scrape before slice: %w", err)
	}
	if traced {
		tg.tr = tr
	}
	var t *tally
	if w.rate > 0 {
		t = runOpen(ctx, tg, w, cfg.slice)
	} else {
		t = runClosed(ctx, tg, w.at, -1, cfg.slice, w.perWindow, false)
	}
	after, err := d.scrape(ctx, hc)
	if err != nil {
		return nil, fmt.Errorf("scrape after slice: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	note(t)
	storeMB := dirMB(storeDir)
	for i := range t.kept {
		rr.attempted++
		if err := ck.rederive(ctx, &t.kept[i].req, t.kept[i].body); err != nil {
			violate("re-derivation: %v", err)
		}
	}

	rr.e2e, rr.layer = sliceMetrics(t, before, after, setup, d.readyMs, storeMB, traced)
	l := rr.layer
	reqs := l["client.samples"]
	sims, puts := after.statsz["sims"]-before.statsz["sims"], after.statsz["storePuts"]-before.statsz["storePuts"]

	// Counter invariants: the slice exercised what the workload claims.
	if w.wantSimsPerReq >= 0 && sims != w.wantSimsPerReq*reqs {
		violate("%s: %v simulations over %v requests, want exactly %v per request", w.name, sims, reqs, w.wantSimsPerReq)
	}
	if w.wantNoPuts && puts != 0 {
		violate("%s: %v store puts in a read-only slice", w.name, puts)
	}
	for _, guard := range []string{"store.corrupt", "store.errors", "gpad.http_5xx"} {
		if l[guard] != 0 {
			violate("%s: %s = %v, want 0", w.name, guard, l[guard])
		}
	}
	if w.rate > 0 && (l["client.late_p99_ms"] > 1 || l["qos.queued_end"] != 0) {
		// Not a failure: it says the box could not hold the fixed rate
		// this round, which is what these two metrics are for.
		fmt.Fprintf(os.Stderr, "bench: %s: dispatcher lateness p99 %.3f ms, %v queued at end of slice\n",
			w.name, l["client.late_p99_ms"], l["qos.queued_end"])
	}
	return rr, nil
}

// sliceMetrics turns one timed slice and the scrapes around it into the
// round's end-to-end and per-layer values. It is a pure function of its
// inputs, so the name-parity test can see every name it emits without
// spawning a daemon.
func sliceMetrics(t *tally, before, after *snapshot, setup time.Duration, readyMs, storeMB float64, traced bool) (e2e, l map[string]float64) {
	e2e, l = map[string]float64{}, map[string]float64{}
	// End-to-end: what a client of gpad sees.
	lat := sortedCopy(t.latMs)
	secs := t.elapsed.Seconds()
	reqs := float64(len(lat))
	e2e["setup_s"] = setup.Seconds()
	e2e["lat_p50_rel"] = relativeP50(t.work, t.ref)
	e2e["lat_mean_rel"] = relativeMean(t.work, t.ref)
	e2e["rss_peak_mb"] = after.hwmKB / 1024

	// Per layer: client side, then the scraped deltas.
	dz := func(name string) float64 { return after.statsz[name] - before.statsz[name] }
	dm := func(series string) float64 { return after.metrics[series] - before.metrics[series] }
	l["client.samples"] = reqs
	l["client.windows"] = float64(len(t.work))
	l["client.fail_share"] = ratio(float64(t.failed), float64(t.attempted))
	l["client.req_per_s"] = ratio(float64(t.attempted-t.failed), secs)
	l["client.lat_p50_ms"] = percentile(lat, 0.50)
	l["client.lat_p90_ms"] = percentile(lat, 0.90)
	l["client.lat_p99_ms"] = percentile(lat, 0.99)
	l["client.lat_max_ms"] = percentile(lat, 1)
	l["client.req_bytes_mean"] = ratio(float64(t.reqBytes), reqs)
	l["client.resp_bytes_mean"] = ratio(float64(t.respBytes), reqs)
	l["client.late_p99_ms"] = percentile(sortedCopy(t.lateMs), 0.99)
	if traced {
		l["client.ttfb_p50_ms"] = median(t.ttfbMs)
		l["client.read_body_p50_ms"] = median(t.readMs)
		l["client.check_p50_us"] = median(t.checkUs)
	}

	var refN int
	var refDur time.Duration
	refP50 := make([]float64, len(t.ref))
	for k, w := range t.ref {
		refN += len(w.lat)
		refDur += w.dur
		refP50[k] = w.p50
	}
	l["ref.lat_p50_ms"] = median(refP50)
	l["ref.req_per_s"] = ratio(float64(refN), refDur.Seconds())

	l["gpad.ready_ms"] = readyMs
	l["gpad.cpu_ms_per_req"] = ratio((after.cpuTicks-before.cpuTicks)*1000/clockTick, reqs)
	l["gpad.allocs_per_req"] = ratio(dm("go_gc_heap_allocs_objects_total"), reqs)
	l["gpad.alloc_kb_per_req"] = ratio(dm("go_gc_heap_allocs_bytes_total")/1024, reqs)
	l["gpad.gc_cycles_per_kreq"] = ratio(dm("go_gc_cycles_total")*1000, reqs)
	l["gpad.http_5xx"] = after.sumMetrics("gpa_http_requests_total{", `status="5`) -
		before.sumMetrics("gpa_http_requests_total{", `status="5`)
	l["obs.metrics_scrape_us"] = after.scrapeUs
	l["box.steal_share"] = ratio(after.hostSteal-before.hostSteal, after.hostTotal-before.hostTotal)

	lookups := dz("hits") + dz("misses") + dz("coalesced") + dz("bypass")
	l["service.hit_share"] = ratio(dz("hits"), lookups)
	l["service.coalesced_per_req"] = ratio(dz("coalesced"), reqs)
	l["service.runs_per_req"] = ratio(dz("runs"), reqs)
	l["service.sims_per_req"] = ratio(dz("sims"), reqs)
	l["service.stage_served_per_req"] = ratio(dz("stageServed"), reqs)
	l["service.stage_hit_share"] = ratio(dz("stageHits"), dz("stageHits")+dz("stageMisses"))
	l["service.structure_builds"] = dz("structureBuilds")
	for _, stage := range []string{"assemble", "simulate", "blame", "advise"} {
		sum := dm(`gpa_stage_duration_seconds_sum{stage="` + stage + `"}`)
		count := dm(`gpa_stage_duration_seconds_count{stage="` + stage + `"}`)
		l["service.stage_"+stage+"_ms_mean"] = ratio(sum*1000, count)
	}
	l["service.elapsed_ms_mean"] = mean(t.uncachedMs)

	l["qos.shed_per_req"] = ratio(dz("shed")+dz("quotaShed")+dz("brownoutShed"), reqs)
	l["qos.queued_end"] = after.statsz["queued"]
	var served float64
	for name := range after.statsz {
		if strings.HasPrefix(name, "tenants.") && strings.HasSuffix(name, ".served") {
			served += dz(name)
		}
	}
	l["qos.tenant_a_served_share"] = ratio(dz("tenants.a.served"), served)

	l["store.hits_per_req"] = ratio(dz("storeHits"), reqs)
	l["store.puts_per_req"] = ratio(dz("storePuts"), reqs)
	l["store.corrupt"] = dz("storeCorrupt")
	l["store.errors"] = dz("storeErrors")
	l["store.disk_mb"] = storeMB

	l["gpusim.sim_cycles_per_req"] = ratio(float64(t.cyclesSum), float64(t.cyclesN))
	l["gpusim.cycles_per_host_ms"] = ratio(t.simCycles, t.hostMs)
	l["gpusim.ff_cycles_skipped_per_sim"] = ratio(dz("ffCyclesSkipped"), dz("sims"))
	l["gpusim.pool_hit_share"] = ratio(dz("poolHits"), dz("poolGets"))
	return e2e, l
}

// metricValue is one reported metric: the value (median of rounds for
// every timing), its unit, and the per-round values behind it.
type metricValue struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Rounds []float64 `json:"rounds,omitempty"`
}

// workloadResult is everything measured on one workload.
type workloadResult struct {
	Name      string                 `json:"name"`
	Why       string                 `json:"why"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Errors    []string               `json:"errors,omitempty"`
	EndToEnd  map[string]metricValue `json:"endToEnd"`
	PerLayer  map[string]metricValue `json:"perLayer"`
}

// fold combines a workload's rounds. End-to-end metrics are the median
// of the untraced rounds (tracing never touches a reported end-to-end
// number); layer metrics are the median over every round that has them,
// except the few that are sums, maxima or cross-round by definition.
func fold(w *workload, rounds []*roundResult) *workloadResult {
	wr := &workloadResult{Name: w.name, Why: w.why,
		EndToEnd: map[string]metricValue{}, PerLayer: map[string]metricValue{}}
	// plain and traced hold the rounds' lat_mean_rel: in a closed loop the
	// inverse of throughput, measured against the reference.
	var plain, traced []float64
	for _, r := range rounds {
		wr.Attempted += r.attempted
		wr.Failed += r.failed
		for _, e := range r.errs {
			if len(wr.Errors) < maxErrs {
				wr.Errors = append(wr.Errors, e)
			}
		}
		if r.traced {
			traced = append(traced, r.e2e["lat_mean_rel"])
		} else {
			plain = append(plain, r.e2e["lat_mean_rel"])
		}
	}
	for _, def := range endToEnd {
		var vals []float64
		for _, r := range rounds {
			if !r.traced {
				vals = append(vals, r.e2e[def.Name])
			}
		}
		wr.EndToEnd[def.Name] = metricValue{Value: median(vals), Unit: def.Unit, Rounds: vals}
	}
	for _, def := range perLayer {
		var vals []float64
		for _, r := range rounds {
			if v, ok := r.layer[def.Name]; ok {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			continue
		}
		mv := metricValue{Value: median(vals), Unit: def.Unit, Rounds: vals}
		switch def.Name {
		case "client.samples":
			mv.Value = 0
			for _, v := range vals {
				mv.Value += v
			}
		case "client.lat_max_ms":
			mv.Value = sortedCopy(vals)[len(vals)-1]
		}
		wr.PerLayer[def.Name] = mv
	}
	wr.PerLayer["client.round_spread"] = metricValue{Value: spread(plain), Unit: "share"}
	overhead := 0.0
	if len(traced) > 0 && median(plain) > 0 {
		overhead = median(traced)/median(plain) - 1
	}
	wr.PerLayer["client.trace_overhead_share"] = metricValue{Value: overhead, Unit: "share"}
	return wr
}

// runAll measures the named workloads. Rounds are interleaved: round r
// runs the workloads rotated by r, so slow drift of the box spreads
// over all of them instead of landing on the last one.
func runAll(ctx context.Context, cfg *config, c *corpus, pins map[string]pin, names []string, tr *tracer) ([]*workloadResult, error) {
	ws := make([]*workload, len(names))
	cks := make([]*checker, len(names))
	rounds := make([][]*roundResult, len(names))
	for i, name := range names {
		w, err := newWorkload(c, name, cfg.seed)
		if err != nil {
			return nil, err
		}
		ws[i], cks[i] = w, &checker{c: c, w: w, pins: pins}
	}
	for r, traced := range cfg.plan {
		for j := range ws {
			i := (j + r) % len(ws)
			rr, err := runRound(ctx, cfg, cks[i], ws[i], traced, tr)
			if err != nil {
				return nil, fmt.Errorf("%s round %d: %w", ws[i].name, r, err)
			}
			rounds[i] = append(rounds[i], rr)
		}
	}
	out := make([]*workloadResult, len(ws))
	for i, w := range ws {
		out[i] = fold(w, rounds[i])
	}
	return out, nil
}

// printTable writes every metric of one workload by name and unit.
func printTable(wr *workloadResult, withLayers bool) {
	fmt.Printf("\n== %s: attempted %d, failed %d\n", wr.Name, wr.Attempted, wr.Failed)
	for _, e := range wr.Errors {
		fmt.Printf("   FAIL %s\n", e)
	}
	for _, def := range endToEnd {
		mv := wr.EndToEnd[def.Name]
		fmt.Printf("  %-34s %14.4f %-10s rounds %s\n", def.Name, mv.Value, mv.Unit, fmtRounds(mv.Rounds))
	}
	if !withLayers {
		return
	}
	names := make([]string, 0, len(wr.PerLayer))
	for name := range wr.PerLayer {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mv := wr.PerLayer[name]
		fmt.Printf("  %-34s %14.4f %s\n", name, mv.Value, mv.Unit)
	}
}

func fmtRounds(vals []float64) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = trimFloat(v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func trimFloat(v float64) string {
	if math.Abs(v) >= 100 {
		return fmt.Sprintf("%.1f", v)
	}
	return fmt.Sprintf("%.3f", v)
}
