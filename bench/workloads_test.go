package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"testing"
)

// sequence renders the first n requests of a workload's fixture and
// timed slice, and the open-loop schedule, as one byte string.
func sequence(t *testing.T, name string, seed uint64, n int) []byte {
	t.Helper()
	w, err := newWorkload(loadCorpus(), name, seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	emit := func(r request) {
		buf.WriteString(r.path)
		buf.WriteByte(' ')
		buf.WriteString(r.tenant)
		buf.WriteByte(' ')
		buf.Write(r.body)
		buf.WriteByte('\n')
	}
	for _, r := range w.populate {
		emit(r)
	}
	for _, r := range w.warmup {
		emit(r)
	}
	for i := 0; i < n; i++ {
		emit(w.at(i))
		if w.rate > 0 {
			buf.WriteString(w.due(i).String())
			buf.WriteByte('\n')
		}
	}
	return buf.Bytes()
}

func TestGeneratorDeterminism(t *testing.T) {
	for _, name := range workloadNames {
		a, b := sequence(t, name, 7, 200), sequence(t, name, 7, 200)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two generations from seed 7 differ", name)
		}
		if c := sequence(t, name, 8, 200); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generate the same requests", name)
		}
	}
}

func TestColdRequestsNeverRepeat(t *testing.T) {
	for _, name := range []string{"cold_bench", "mixed_open"} {
		w, err := newWorkload(loadCorpus(), name, 3)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]int{}
		for _, r := range w.warmup {
			if r.kind != kindPinned {
				seen[string(r.body)] = -1
			}
		}
		for i := 0; i < 2000; i++ {
			r := w.at(i)
			if r.kind == kindPinned {
				continue
			}
			if j, dup := seen[string(r.body)]; dup {
				t.Fatalf("%s: request %d repeats request %d: %s", name, i, j, r.body)
			}
			seen[string(r.body)] = i
		}
	}
}

func TestWorkloadShapes(t *testing.T) {
	c := loadCorpus()
	if len(c.rows) != 26 || len(c.variants) != 52 {
		t.Fatalf("corpus has %d rows and %d variants, want 26 and 52", len(c.rows), len(c.variants))
	}
	disk, _ := newWorkload(c, "disk_warm", 1)
	if len(disk.populate) <= 512 {
		t.Errorf("disk_warm corpus is %d requests: must exceed the 512-entry LRUs", len(disk.populate))
	}
	// The warm-up must not put the head of the cycle in memory, or the
	// first requests of the slice would be result-cache hits.
	if bytes.Equal(disk.warmup[0].body, disk.at(0).body) {
		t.Errorf("disk_warm warms the request the slice starts with")
	}
	mixed, _ := newWorkload(c, "mixed_open", 1)
	kinds := map[reqKind]int{}
	tenants := map[string]int{}
	for i := 0; i < 200; i++ {
		r := mixed.at(i)
		kinds[r.kind]++
		tenants[r.tenant]++
	}
	want := map[reqKind]int{kindPinned: 150, kindColdAdvise: 20, kindColdProfile: 10, kindBatch: 10, kindSweep: 10}
	for k, n := range want {
		if kinds[k] != n {
			t.Errorf("mixed_open kind %d: %d of 200 arrivals, want %d", k, kinds[k], n)
		}
	}
	if tenants["a"] != 150 || tenants["b"] != 50 {
		t.Errorf("mixed_open tenants = %v, want a:b = 3:1", tenants)
	}
	if got := mixed.due(mixedRate); got.Seconds() != 1 {
		t.Errorf("arrival %d is due at %v, want 1s", mixedRate, got)
	}
	if _, err := newWorkload(c, "nope", 1); err == nil {
		t.Errorf("unknown workload name accepted")
	}
}

// mixedColdRows lists, per burst, the rows mixed_open simulates (the
// entries that carry a fresh simulator seed), sorted.
func mixedColdRows(t *testing.T, seed uint64, bursts int) [][]string {
	t.Helper()
	w, err := newWorkload(loadCorpus(), "mixed_open", seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]string, bursts)
	for i := 0; i < bursts*w.perWindow; i++ {
		r := w.at(i)
		var batch struct {
			Requests []kernelBody `json:"requests"`
		}
		one := make([]kernelBody, 1)
		if err := json.Unmarshal(r.body, &batch); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(r.body, &one[0]); err != nil {
			t.Fatal(err)
		}
		for _, k := range append(batch.Requests, one...) {
			if k.Seed != nil {
				out[i/w.perWindow] = append(out[i/w.perWindow], k.Bench)
			}
		}
	}
	for _, rows := range out {
		sort.Strings(rows)
	}
	return out
}

// Every burst of mixed_open must simulate the same rows whatever the
// seed: a row's cost varies sixteenfold, and a sweep multiplies it.
func TestMixedColdRowsDoNotDependOnTheSeed(t *testing.T) {
	a, b := mixedColdRows(t, 1, 13), mixedColdRows(t, 2, 13)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("seeds 1 and 2 simulate different rows:\n%v\n%v", a, b)
	}
	all := map[string]bool{}
	for burst, rows := range a {
		if len(rows) != 6 {
			t.Errorf("burst %d simulates %d rows, want 6: %v", burst, len(rows), rows)
		}
		for i, row := range rows {
			if i > 0 && rows[i-1] == row {
				t.Errorf("burst %d simulates row %q twice", burst, row)
			}
			all[row] = true
		}
	}
	if len(all) != 26 {
		t.Errorf("13 bursts simulate %d distinct rows, want all 26", len(all))
	}
}
