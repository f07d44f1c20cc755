// Command bench is the standing benchmark of the gpad serving stack:
// five workloads, four client-visible metrics (the two latencies relative
// to a reference server measured in the same slice, see ref.go), and a
// per-layer budget table, all measured from outside the program — over loopback HTTP
// against a spawned gpad binary, from gpad's /statsz, /metrics, /healthz
// and /proc/<pid> surfaces, and (the layers pass) by timing calls into
// each package's exported functions. BENCHMARK.json at the repository
// root names the command, the workloads and every metric; README.md in
// this directory explains them.
//
// One command builds gpad, generates every request body from the seed,
// runs the workloads, checks every response for correctness, prints
// every metric by name and unit, and writes bench/out/result.json:
//
//	go run -C bench . -seed 1              all five workloads, rounds interleaved
//	go run -C bench . -seed 1 -trace 1     adds the traced rounds and the layers pass
//	go run -C bench . -smoke               1 round x 1 s per workload
//	go run -C bench . -compare a.json b.json
//
// The benchmark driver runs one workload per invocation through
// bench/run.sh:
//
//	bash bench/run.sh --workload warm_bench --seed 1 --seconds 20 --trace 0
//
// and reads the JSON object printed as the last line of standard output.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// defaultRounds is how many fresh-gpad rounds each workload gets; every
// end-to-end value is the median of its per-round values. It is a
// constant, not a flag: results taken with different round counts have
// different slice lengths and spreads and cannot be compared.
const defaultRounds = 4

// maxTraceSpans bounds how many spans trace.json holds (the self-time
// table is always computed over all of them).
const maxTraceSpans = 50000

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print the driver's result line (empty = all five, rounds interleaved)")
		seed         = flag.Uint64("seed", 1, "workload seed: fixes row order, the fresh-seed sequence and mixed_open's slot order")
		seconds      = flag.Float64("seconds", 0, "timed seconds per workload, split evenly over the rounds (0 = 8 s per round)")
		trace        = flag.Int("trace", 0, "1 = traced run: httptrace spans around every request and the in-process layers pass; prints per-layer metrics")
		smoke        = flag.Bool("smoke", false, "1 round x 1 s per workload: a liveness and correctness check, not a measurement")
		compare      = flag.Bool("compare", false, "compare two result.json files (args: a.json b.json) against the bounds in BENCHMARK.json")
		refServer    = flag.String("ref-server", "", "internal: serve the reference server (ref.go) on this address; the benchmark starts itself this way")
	)
	flag.Parse()
	if *refServer != "" {
		fatal(serveRef(*refServer))
	}

	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare wants two result files"))
		}
		code, err := compareMain(os.Stdout, filepath.Join(root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
		os.Exit(code)
	}
	rounds := defaultRounds
	if *smoke {
		rounds, *seconds = 1, 1
	}
	if *seconds <= 0 {
		*seconds = 8 * float64(rounds)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code, err := run(ctx, root, *workloadName, *seed, *seconds, rounds, *trace != 0)
	stop()
	if err != nil {
		fatal(err)
	}
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// findRoot locates the repository root — the directory holding
// BENCHMARK.json and bench/ — from the working directory, which is the
// root itself (bench/run.sh) or bench/ (go run -C bench .).
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "bench", "go.mod")); err != nil {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("no BENCHMARK.json next to bench/ from %s: run from the repository root or from bench/", wd)
}

// buildGpad compiles cmd/gpad from the source tree into dir and returns
// the binary's path and how long the build took.
func buildGpad(ctx context.Context, root, dir string) (string, float64, error) {
	bin := filepath.Join(dir, "gpad")
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/gpad")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/gpad: %w\n%s", err, out)
	}
	return bin, time.Since(start).Seconds(), nil
}

// gitRevision is best effort: a driver checkout is not a git repository.
func gitRevision(ctx context.Context, root string) string {
	out, err := exec.CommandContext(ctx, "git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// run measures one workload (the driver's contract mode) or all five,
// and returns the process exit code.
func run(ctx context.Context, root, only string, seed uint64, seconds float64, rounds int, trace bool) (int, error) {
	started := time.Now()
	bf, err := loadBenchmarkFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return 1, err
	}
	if diffs := bf.mismatches(); len(diffs) > 0 {
		return 1, fmt.Errorf("BENCHMARK.json and bench/names.go disagree:\n  %s", strings.Join(diffs, "\n  "))
	}
	buildDir := filepath.Join(root, ".bench_build")
	outDir := filepath.Join(root, "bench", "out")
	for _, dir := range []string{buildDir, outDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return 1, err
		}
	}
	// Every temporary file lives under one directory inside the
	// checkout, removed on success, failure and interrupt alike.
	tmpDir, err := os.MkdirTemp(buildDir, "tmp-")
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(tmpDir)

	gpadBin, buildS, err := buildGpad(ctx, root, buildDir)
	if err != nil {
		return 1, err
	}
	pins, err := loadPins(filepath.Join(root, "DRIFT.txt"))
	if err != nil {
		return 1, err
	}
	c := loadCorpus()
	// One reference server per run: this binary again, as a process of
	// its own like gpad, so it shares no scheduler or heap with the load
	// generator.
	self, err := os.Executable()
	if err != nil {
		return 1, err
	}
	ref, err := startDaemon(ctx, self, refArgs)
	if err != nil {
		return 1, fmt.Errorf("reference server: %w", err)
	}
	defer ref.stop()

	names := workloadNames
	if only != "" {
		names = []string{only}
	}
	// Untraced rounds feed the end-to-end metrics. A traced contract
	// run keeps its first round untraced as the overhead baseline; a
	// traced full run adds one traced round after the untraced ones.
	plan := make([]bool, rounds)
	switch {
	case trace && only != "":
		for r := 1; r < rounds; r++ {
			plan[r] = true
		}
	case trace:
		plan = append(plan, true)
	}
	cfg := &config{gpadBin: gpadBin, tmpDir: tmpDir, refBase: ref.base, seed: seed,
		slice: time.Duration(seconds / float64(rounds) * float64(time.Second)), plan: plan}

	tr := newTracer()
	results, err := runAll(ctx, cfg, c, pins, names, tr)
	if err != nil {
		return 1, err
	}
	var layers map[string]float64
	if trace {
		storeDir, err := os.MkdirTemp(tmpDir, "layers-")
		if err != nil {
			return 1, err
		}
		if layers, err = layersPass(ctx, c.variants, tr, storeDir); err != nil {
			return 1, fmt.Errorf("layers pass: %w", err)
		}
		layers["bench.build_s"] = buildS
	}
	units := map[string]string{}
	for _, def := range perLayer {
		units[def.Name] = def.Unit
	}
	failed := 0
	for _, wr := range results {
		for name, v := range layers {
			wr.PerLayer[name] = metricValue{Value: v, Unit: units[name]}
		}
		failed += wr.Failed
		printTable(wr, trace)
	}

	rf := &resultFile{Schema: "gpa-bench/1", BuildS: buildS, Workloads: results,
		Stamp: stamp{Seed: seed, Rounds: rounds, SliceSeconds: cfg.slice.Seconds(), Trace: trace,
			Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			GitRevision: gitRevision(ctx, root), StartedAt: started.UTC().Format(time.RFC3339)}}
	rf.Metrics.EndToEnd, rf.Metrics.PerLayer = endToEnd, perLayer
	if err := writeJSON(filepath.Join(outDir, "result.json"), rf); err != nil {
		return 1, err
	}
	if trace {
		if err := writeTrace(filepath.Join(outDir, "trace.json"), tr); err != nil {
			return 1, err
		}
	}
	fmt.Printf("\nbuild %.2f s, total %.1f s, wrote %s\n", buildS, time.Since(started).Seconds(),
		filepath.Join("bench", "out", "result.json"))

	if only == "" {
		if failed > 0 {
			return 1, nil
		}
		return 0, nil
	}
	// Contract mode: the driver reads this line and judges `correct`
	// itself, so the exit code stays 0 once a result is printed.
	wr := results[0]
	metrics := map[string]metricValue{}
	if trace {
		for _, def := range perLayer {
			mv, ok := wr.PerLayer[def.Name]
			if !ok {
				return 1, fmt.Errorf("per-layer metric %s is named but was not measured", def.Name)
			}
			metrics[def.Name] = metricValue{Value: mv.Value, Unit: def.Unit}
		}
	} else {
		for _, def := range endToEnd {
			metrics[def.Name] = metricValue{Value: wr.EndToEnd[def.Name].Value, Unit: def.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{wr.Failed == 0, wr.Attempted, wr.Failed, metrics})
	if err != nil {
		return 1, err
	}
	fmt.Println(string(line))
	return 0, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeTrace writes the spans kept in memory during the run, with the
// per-layer self-time table computed over all of them.
func writeTrace(path string, tr *tracer) error {
	tr.mu.Lock()
	spans := tr.spans
	tr.mu.Unlock()
	table := selfTable(spans)
	fmt.Printf("\n== self time per span name (all traced rounds and the layers pass)\n")
	fmt.Printf("  %-26s %9s %14s %14s %8s\n", "span", "count", "self p50 us", "total p50 us", "share")
	for _, r := range table {
		fmt.Printf("  %-26s %9d %14.2f %14.2f %7.1f%%\n", r.Name, r.Count, r.SelfP50Us, r.TotalP50Us, 100*r.SelfSumShare)
	}
	out := struct {
		Schema    string    `json:"schema"`
		Spans     []span    `json:"spans"`
		Truncated bool      `json:"truncated"`
		SelfTimes []selfRow `json:"selfTimes"`
	}{Schema: "gpa-bench-trace/1", Spans: spans, SelfTimes: table}
	if len(spans) > maxTraceSpans {
		// Keep the layers pass (recorded last) and the earliest request
		// spans; the table above already covers everything.
		var keep []span
		for _, s := range spans {
			if !strings.HasPrefix(s.Name, "client.") {
				keep = append(keep, s)
			}
		}
		for _, s := range spans {
			if len(keep) >= maxTraceSpans {
				break
			}
			if strings.HasPrefix(s.Name, "client.") {
				keep = append(keep, s)
			}
		}
		out.Spans, out.Truncated = keep, true
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
