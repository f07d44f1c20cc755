package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkFile is the root BENCHMARK.json: the contract that names the
// command, the workloads and every metric with its unit, direction and
// (end to end) the bound by which it may worsen before a change counts
// as a regression.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// mismatches lists how BENCHMARK.json and the code's workload and metric
// tables differ in names, units or directions. Every run refuses to
// start on a mismatch, so the contract stays honest even where nobody
// runs this module's tests (the repository's `go test ./...` does not
// reach a nested module).
func (bf *benchmarkFile) mismatches() []string {
	var out []string
	diff := func(what string, file, code map[string]string) {
		for name, f := range file {
			if c, ok := code[name]; !ok {
				out = append(out, fmt.Sprintf("%s %q is in BENCHMARK.json but not in the code", what, name))
			} else if c != f {
				out = append(out, fmt.Sprintf("%s %q: BENCHMARK.json says %q, the code says %q", what, name, f, c))
			}
		}
		for name := range code {
			if _, ok := file[name]; !ok {
				out = append(out, fmt.Sprintf("%s %q is in the code but not in BENCHMARK.json", what, name))
			}
		}
	}
	fileW, codeW := map[string]string{}, map[string]string{}
	for _, w := range bf.Workloads {
		fileW[w.Name] = w.Why
	}
	for _, name := range workloadNames {
		codeW[name] = workloadWhy[name]
	}
	diff("workload", fileW, codeW)
	table := func(defs []metricDef) map[string]string {
		m := map[string]string{}
		for _, d := range defs {
			m[d.Name] = d.Unit + ", " + d.Better + " is better"
		}
		return m
	}
	fileE, fileL := map[string]string{}, map[string]string{}
	for _, m := range bf.EndToEnd {
		fileE[m.Name] = m.Unit + ", " + m.Better + " is better"
	}
	for _, m := range bf.PerLayer {
		fileL[m.Name] = m.Unit + ", " + m.Better + " is better"
	}
	diff("end-to-end metric", fileE, table(endToEnd))
	diff("per-layer metric", fileL, table(perLayer))
	sort.Strings(out)
	return out
}

// Verdicts of -compare, per (workload, end-to-end metric).
const (
	verdictWorse      = "worse"
	verdictBetter     = "better"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
)

// verdict compares one metric of run b against run a. worsening is the
// share of a's median by which b's median is worse (negative = better).
// When either run's round spread is wider than the bound the difference
// cannot be told from noise: the row is unresolved unless every round of
// one run beats every round of the other.
func verdict(a, b metricValue, higherIsBetter bool, bound float64) (v string, worsening, noise float64) {
	worsening = ratio(b.Value-a.Value, a.Value)
	if higherIsBetter {
		worsening = -worsening
	}
	noise = max(spread(a.Rounds), spread(b.Rounds))
	if noise > bound {
		switch {
		case separated(b.Rounds, a.Rounds, higherIsBetter):
			return verdictBetter, worsening, noise
		case separated(a.Rounds, b.Rounds, higherIsBetter) && worsening > bound:
			return verdictWorse, worsening, noise
		}
		return verdictUnresolved, worsening, noise
	}
	switch {
	case worsening > bound:
		return verdictWorse, worsening, noise
	case worsening < -bound:
		return verdictBetter, worsening, noise
	}
	return verdictUnchanged, worsening, noise
}

// separated reports whether every round of xs reads better than every
// round of ys.
func separated(xs, ys []float64, higherIsBetter bool) bool {
	if len(xs) == 0 || len(ys) == 0 {
		return false
	}
	sx, sy := sortedCopy(xs), sortedCopy(ys)
	if higherIsBetter {
		return sx[0] > sy[len(sy)-1]
	}
	return sx[len(sx)-1] < sy[0]
}

// resultFile is bench/out/result.json.
type resultFile struct {
	Schema string `json:"schema"`
	Stamp  stamp  `json:"stamp"`
	// BuildS is the one-off `go build` of gpad, reported apart from
	// every workload's setup_s.
	BuildS    float64           `json:"buildS"`
	Workloads []*workloadResult `json:"workloads"`
	// Metrics repeats the definitions (layer, source, predicted moves)
	// so a result file can be read without the source tree.
	Metrics struct {
		EndToEnd []metricDef `json:"endToEnd"`
		PerLayer []metricDef `json:"perLayer"`
	} `json:"metrics"`
}

// stamp records where and how a result was measured.
type stamp struct {
	Seed         uint64  `json:"seed"`
	Rounds       int     `json:"rounds"`
	SliceSeconds float64 `json:"sliceSeconds"`
	Trace        bool    `json:"trace"`
	Nproc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"goVersion"`
	GitRevision  string  `json:"gitRevision"`
	StartedAt    string  `json:"startedAt"`
}

func loadResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// compareRow is one line of the -compare table.
type compareRow struct {
	workload, metric, verdict string
	a, b, worsening, noise    float64
	bound                     float64
}

// comparable refuses to weigh two results that were not measured the
// same way: another round count or slice length changes the spread the
// verdicts rest on, another seed changes the requests, and a traced
// contract run keeps one untraced round where an untraced one keeps all.
func comparable(a, b stamp) error {
	if a.Rounds != b.Rounds || a.SliceSeconds != b.SliceSeconds || a.Seed != b.Seed || a.Trace != b.Trace {
		return fmt.Errorf("not comparable: a has seed %d, %d rounds x %g s, trace %v; b has seed %d, %d rounds x %g s, trace %v",
			a.Seed, a.Rounds, a.SliceSeconds, a.Trace, b.Seed, b.Rounds, b.SliceSeconds, b.Trace)
	}
	return nil
}

// failRow judges the failed share of one workload: a gain does not count
// when more operations fail, so any rise is worse, whatever the timings.
func failRow(wa, wb *workloadResult) compareRow {
	fa := ratio(float64(wa.Failed), float64(wa.Attempted))
	fb := ratio(float64(wb.Failed), float64(wb.Attempted))
	r := compareRow{workload: wa.Name, metric: "failed_share", verdict: verdictUnchanged, a: fa, b: fb, worsening: fb - fa}
	switch {
	case fb > fa:
		r.verdict = verdictWorse
	case fb < fa:
		r.verdict = verdictBetter
	}
	return r
}

// compareResults judges every (workload, end-to-end metric) present in
// both runs against the bounds in BENCHMARK.json, and each workload's
// failed share against a bound of zero.
func compareResults(bf *benchmarkFile, a, b *resultFile) []compareRow {
	byName := map[string]*workloadResult{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	var rows []compareRow
	for _, wa := range a.Workloads {
		wb := byName[wa.Name]
		if wb == nil {
			continue
		}
		for _, m := range bf.EndToEnd {
			ma, okA := wa.EndToEnd[m.Name]
			mb, okB := wb.EndToEnd[m.Name]
			if !okA || !okB {
				continue
			}
			if m.Name == "setup_s" {
				// Judged on medians alone, as the benchmark driver
				// does: a fixture of a few hundred milliseconds spreads
				// too widely over four rounds to ever resolve.
				ma.Rounds, mb.Rounds = nil, nil
			}
			v, worsening, noise := verdict(ma, mb, m.Better == "higher", m.Bound)
			rows = append(rows, compareRow{workload: wa.Name, metric: m.Name, verdict: v,
				a: ma.Value, b: mb.Value, worsening: worsening, noise: noise, bound: m.Bound})
		}
		rows = append(rows, failRow(wa, wb))
	}
	return rows
}

// compareMain implements `bench -compare a.json b.json`; the exit code
// is 1 when any row is worse and 2 when the files cannot be compared.
func compareMain(out io.Writer, benchmarkPath, pathA, pathB string) (int, error) {
	bf, err := loadBenchmarkFile(benchmarkPath)
	if err != nil {
		return 2, err
	}
	a, err := loadResult(pathA)
	if err != nil {
		return 2, err
	}
	b, err := loadResult(pathB)
	if err != nil {
		return 2, err
	}
	if err := comparable(a.Stamp, b.Stamp); err != nil {
		return 2, err
	}
	rows := compareResults(bf, a, b)
	if len(rows) == 0 {
		return 2, fmt.Errorf("%s and %s share no workload", pathA, pathB)
	}
	fmt.Fprintf(out, "%-11s %-12s %12s %12s %9s %8s %6s  %s\n",
		"workload", "metric", "a", "b", "worsening", "spread", "bound", "verdict")
	code := 0
	counts := map[string]int{}
	for _, r := range rows {
		fmt.Fprintf(out, "%-11s %-12s %12.4f %12.4f %+8.1f%% %7.1f%% %5.0f%%  %s\n",
			r.workload, r.metric, r.a, r.b, 100*r.worsening, 100*r.noise, 100*r.bound, r.verdict)
		counts[r.verdict]++
		if r.verdict == verdictWorse {
			code = 1
		}
	}
	fmt.Fprintf(out, "%d worse, %d better, %d unchanged, %d unresolved\n",
		counts[verdictWorse], counts[verdictBetter], counts[verdictUnchanged], counts[verdictUnresolved])
	return code, nil
}
