package main

import (
	"context"
	"math"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func sorted(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sameSet(t *testing.T, what string, got, want map[string]bool) {
	t.Helper()
	for name := range got {
		if !want[name] {
			t.Errorf("%s: %q is not in %v", what, name, sorted(want))
		}
	}
	for name := range want {
		if !got[name] {
			t.Errorf("%s: %q is missing", what, name)
		}
	}
}

// TestNamesMatchBenchmarkFile keeps BENCHMARK.json and the code's metric
// and workload tables identical, inside the contract's limits.
func TestNamesMatchBenchmarkFile(t *testing.T) {
	bf, err := loadBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}

	// The declared tables (what every run also checks before it starts).
	for _, d := range bf.mismatches() {
		t.Error(d)
	}
	for _, w := range bf.Workloads {
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}

	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	all := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) {
			t.Errorf("metric %q unit %q: outside the allowed alphabet", name, unit)
		}
		if all[name] {
			t.Errorf("metric %q is named twice", name)
		}
		all[name] = true
	}
	fileE2E, fileLayer := map[string]bool{}, map[string]bool{}
	sawSetup := false
	for _, m := range bf.EndToEnd {
		check(m.Name, m.Unit)
		fileE2E[m.Name] = true
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			sawSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !sawSetup {
		t.Errorf("no setup_s metric with unit s, lower is better")
	}
	for _, m := range bf.PerLayer {
		check(m.Name, m.Unit)
		fileLayer[m.Name] = true
	}
	for _, w := range bf.Workloads {
		if !nameRE.MatchString(w.Name) || all[w.Name] {
			t.Errorf("workload name %q is malformed or collides with a metric", w.Name)
		}
	}

	// What the code emits: one folded round of an empty traced slice,
	// plus a one-variant layers pass.
	empty := &snapshot{statsz: map[string]float64{}, metrics: map[string]float64{}}
	e2e, layer := sliceMetrics(&tally{}, empty, empty, time.Second, 1, 1, true)
	w, err := newWorkload(loadCorpus(), "warm_bench", 1)
	if err != nil {
		t.Fatal(err)
	}
	wr := fold(w, []*roundResult{{e2e: e2e, layer: layer}, {traced: true, e2e: e2e, layer: layer}})
	passed, err := layersPass(context.Background(), loadCorpus().variants[:1], newTracer(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	codeE2E, codeLayer := map[string]bool{}, map[string]bool{"bench.build_s": true}
	for name := range wr.EndToEnd {
		codeE2E[name] = true
	}
	for name := range wr.PerLayer {
		codeLayer[name] = true
	}
	for name := range passed {
		codeLayer[name] = true
	}
	sameSet(t, "end-to-end metrics", fileE2E, codeE2E)
	sameSet(t, "per-layer metrics", fileLayer, codeLayer)
	for _, d := range perLayer {
		if d.Layer == "" || d.Source == "" || d.Moves == "" {
			t.Errorf("per-layer metric %q lacks a layer, a source or a moves prediction", d.Name)
		}
	}
}

func TestFoldUsesUntracedRoundsForEndToEnd(t *testing.T) {
	w, err := newWorkload(loadCorpus(), "warm_bench", 1)
	if err != nil {
		t.Fatal(err)
	}
	round := func(traced bool, rel, p99 float64) *roundResult {
		return &roundResult{traced: traced, attempted: 10,
			e2e:   map[string]float64{"lat_mean_rel": rel},
			layer: map[string]float64{"client.lat_p99_ms": p99, "client.samples": 10, "client.lat_max_ms": p99}}
	}
	wr := fold(w, []*roundResult{round(false, 1.8, 1), round(false, 2.2, 5), round(false, 2.0, 3), round(true, 2.5, 9)})
	if got := wr.EndToEnd["lat_mean_rel"]; got.Value != 2.0 || len(got.Rounds) != 3 {
		t.Errorf("lat_mean_rel = %+v, want the median 2.0 of the three untraced rounds", got)
	}
	if got := wr.PerLayer["client.lat_p99_ms"].Value; got != 4 {
		t.Errorf("layer median over all four rounds = %v, want 4", got)
	}
	if got := wr.PerLayer["client.samples"].Value; got != 40 {
		t.Errorf("client.samples = %v, want the sum 40", got)
	}
	if got := wr.PerLayer["client.lat_max_ms"].Value; got != 9 {
		t.Errorf("client.lat_max_ms = %v, want the maximum 9", got)
	}
	if got, want := wr.PerLayer["client.round_spread"].Value, (2.2-1.8)/2.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("client.round_spread = %v, want %v", got, want)
	}
	if got, want := wr.PerLayer["client.trace_overhead_share"].Value, 2.5/2.0-1; math.Abs(got-want) > 1e-12 {
		t.Errorf("client.trace_overhead_share = %v, want %v", got, want)
	}
	if wr.Attempted != 40 {
		t.Errorf("attempted = %d, want 40", wr.Attempted)
	}
}
