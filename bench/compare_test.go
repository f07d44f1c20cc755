package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func mv(rounds ...float64) metricValue { return metricValue{Value: median(rounds), Rounds: rounds} }

func TestVerdictTable(t *testing.T) {
	const bound = 0.10
	for _, tc := range []struct {
		name   string
		a, b   metricValue
		higher bool
		want   string
	}{
		{"same", mv(100, 101, 99), mv(100, 102, 98), false, verdictUnchanged},
		{"latency up 20%", mv(100, 101, 99), mv(120, 121, 119), false, verdictWorse},
		{"latency down 20%", mv(100, 101, 99), mv(80, 81, 79), false, verdictBetter},
		{"throughput down 20%", mv(100, 101, 99), mv(80, 81, 79), true, verdictWorse},
		{"throughput up 20%", mv(100, 101, 99), mv(120, 121, 119), true, verdictBetter},
		{"inside the bound", mv(100, 101, 99), mv(108, 107, 109), false, verdictUnchanged},
		{"noisy and overlapping", mv(78, 102, 95), mv(90, 110, 70), true, verdictUnresolved},
		{"noisy but every round better", mv(100, 130, 115), mv(60, 70, 65), false, verdictBetter},
		{"noisy but every round worse", mv(60, 70, 65), mv(100, 130, 115), false, verdictWorse},
		{"noisy, worse median, overlapping", mv(60, 90, 65), mv(80, 130, 75), false, verdictUnresolved},
	} {
		if got, _, _ := verdict(tc.a, tc.b, tc.higher, bound); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestCompareMainExitCode(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, st stamp, failed int, p50 ...float64) string {
		rf := resultFile{Schema: "gpa-bench/1", Stamp: st, Workloads: []*workloadResult{{
			Name: "warm_bench", Attempted: 1000, Failed: failed,
			EndToEnd: map[string]metricValue{"lat_p50_rel": mv(p50...), "lat_mean_rel": mv(2.10, 2.05, 2.12),
				// Wide rounds, equal medians: judged on the medians alone.
				"setup_s": mv(0.3, 0.6, 0.9)},
		}}}
		data, err := json.Marshal(rf)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	full := stamp{Seed: 1, Rounds: 4, SliceSeconds: 8}
	base := write("a.json", full, 0, 1.94, 1.95, 1.93)
	same := write("b.json", full, 0, 1.95, 1.94, 1.96)
	slow := write("c.json", full, 0, 2.60, 2.61, 2.59)
	// Faster, but three responses failed: a gain does not count then.
	broken := write("d.json", full, 3, 1.30, 1.31, 1.29)
	benchmark := filepath.Join("..", "BENCHMARK.json")

	var out bytes.Buffer
	if code, err := compareMain(&out, benchmark, base, same); err != nil || code != 0 {
		t.Errorf("same run: code %d, err %v\n%s", code, err, out.String())
	}
	if !strings.Contains(out.String(), "0 worse, 0 better, 4 unchanged, 0 unresolved") {
		t.Errorf("summary line missing:\n%s", out.String())
	}
	out.Reset()
	if code, err := compareMain(&out, benchmark, base, slow); err != nil || code != 1 {
		t.Errorf("slower run: code %d, err %v\n%s", code, err, out.String())
	}
	out.Reset()
	if code, err := compareMain(&out, benchmark, base, broken); err != nil || code != 1 ||
		!strings.Contains(out.String(), "1 worse, 1 better") {
		t.Errorf("faster run with failures: code %d, err %v\n%s", code, err, out.String())
	}
	for name, st := range map[string]stamp{
		"smoke.json":  {Seed: 1, Rounds: 1, SliceSeconds: 1},
		"short.json":  {Seed: 1, Rounds: 4, SliceSeconds: 4},
		"seed2.json":  {Seed: 2, Rounds: 4, SliceSeconds: 8},
		"traced.json": {Seed: 1, Rounds: 4, SliceSeconds: 8, Trace: true},
	} {
		if code, err := compareMain(&out, benchmark, base, write(name, st, 0, 1.94, 1.95, 1.93)); err == nil || code != 2 {
			t.Errorf("%s against a full run: code %d, err %v, want a refusal with code 2", name, code, err)
		}
	}
	if _, err := compareMain(&out, benchmark, base, filepath.Join(dir, "missing.json")); err == nil {
		t.Errorf("missing file accepted")
	}
}
