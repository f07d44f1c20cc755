package arch

import (
	"strings"
	"testing"
)

func TestLookup(t *testing.T) {
	cases := []struct {
		name string
		sm   int
	}{
		{"v100", 70}, {"V100", 70}, {"volta", 70}, {"sm_70", 70},
		{"Tesla V100-SXM2", 70},
		{"t4", 75}, {"turing", 75}, {"sm_75", 75},
		{"a100", 80}, {"ampere", 80}, {"sm_80", 80}, {" A100 ", 80},
	}
	for _, tc := range cases {
		g, err := Lookup(tc.name)
		if err != nil {
			t.Errorf("Lookup(%q): %v", tc.name, err)
			continue
		}
		if g.SM != tc.sm {
			t.Errorf("Lookup(%q).SM = %d, want %d", tc.name, g.SM, tc.sm)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	for _, name := range []string{"", "h100", "kepler", "sm_35"} {
		_, err := Lookup(name)
		if err == nil {
			t.Errorf("Lookup(%q) should fail", name)
			continue
		}
		if !strings.Contains(err.Error(), "a100") {
			t.Errorf("Lookup(%q) error should list known models, got: %v", name, err)
		}
	}
}

func TestAllCompleteness(t *testing.T) {
	gpus := All()
	if len(gpus) < 3 {
		t.Fatalf("All() returned %d models, want >= 3", len(gpus))
	}
	seenSM := map[int]bool{}
	for i, g := range gpus {
		if seenSM[g.SM] {
			t.Errorf("duplicate SM flag %d in All()", g.SM)
		}
		seenSM[g.SM] = true
		if i > 0 && gpus[i-1].SM > g.SM {
			t.Errorf("All() not ordered by SM flag: %d before %d", gpus[i-1].SM, g.SM)
		}
		// Every listed model must round-trip through the table keys.
		key := KeyOf(g)
		back, err := Lookup(key)
		if err != nil {
			t.Errorf("Lookup(KeyOf(%s)=%q): %v", g.Name, key, err)
		} else if back.SM != g.SM {
			t.Errorf("Lookup(%q) resolves SM %d, want %d", key, back.SM, g.SM)
		}
		// Models must be fully populated: a zero in any of these fields
		// would silently distort the simulator or the estimators.
		for field, v := range map[string]int{
			"NumSMs": g.NumSMs, "SchedulersPerSM": g.SchedulersPerSM,
			"WarpSize": g.WarpSize, "MaxWarpsPerSM": g.MaxWarpsPerSM,
			"MaxThreadsPerBlock": g.MaxThreadsPerBlock, "MaxBlocksPerSM": g.MaxBlocksPerSM,
			"RegistersPerSM": g.RegistersPerSM, "SharedMemPerSM": g.SharedMemPerSM,
			"MSHRsPerSM": g.MSHRsPerSM, "ICacheInstrs": g.ICacheInstrs,
			"GlobalLatency": g.GlobalLatency, "GlobalLatencyTLB": g.GlobalLatencyTLB,
			"SharedLatency": g.SharedLatency, "ConstLatency": g.ConstLatency,
			"ConstMissLatency": g.ConstMissLatency, "LocalLatency": g.LocalLatency,
			"AtomicLatency": g.AtomicLatency, "IFetchMissLatency": g.IFetchMissLatency,
			"ALULatency": g.ALULatency, "IMADWideLatency": g.IMADWideLatency,
			"FP64Latency": g.FP64Latency, "ConvertLatency": g.ConvertLatency,
			"ControlLatency": g.ControlLatency, "MUFULatency": g.MUFULatency,
			"IDIVLatency": g.IDIVLatency, "S2RLatency": g.S2RLatency,
			"VarLatencyDefault": g.VarLatencyDefault, "MUFULatencyBound": g.MUFULatencyBound,
			"S2RLatencyBound": g.S2RLatencyBound, "FP64IssueCost": g.FP64IssueCost,
			"MUFUIssueCost": g.MUFUIssueCost, "ConvertIssueCost": g.ConvertIssueCost,
			"GlobalIssueCost": g.GlobalIssueCost, "SharedIssueCost": g.SharedIssueCost,
			"ICacheLineInstrs":     g.ICacheLineInstrs,
			"FetchSerializeCycles": g.FetchSerializeCycles,
			"BlockLaunchOverhead":  g.BlockLaunchOverhead,
			"UncoalescedPenalty":   g.UncoalescedPenalty,
		} {
			if v <= 0 {
				t.Errorf("%s: field %s is %d, must be positive", g.Name, field, v)
			}
		}
	}
	if len(gpus) != len(models) {
		t.Errorf("All() returned %d models, the table has %d", len(gpus), len(models))
	}
	// Every key, alias and full name resolves to one entry alone, and
	// every flag to one model alone.
	names := map[string]string{}
	flags := map[int]string{}
	for _, e := range models {
		for _, n := range append([]string{e.Key, e.Build().Name}, e.Aliases...) {
			if prev, dup := names[normalize(n)]; dup {
				t.Errorf("lookup name %q of %s is also %s's", n, e.Key, prev)
			}
			names[normalize(n)] = e.Key
		}
		for _, sm := range e.SMFlags {
			if prev, dup := flags[sm]; dup {
				t.Errorf("flag sm_%d of %s is also %s's", sm, e.Key, prev)
			}
			flags[sm] = e.Key
		}
	}
}

// TestPerArchOccupancyLimits pins the occupancy differences between the
// bundled models: the same launch saturates a T4 at half the resident
// warps of a V100/A100, and A100's larger shared memory admits more
// blocks per SM for shared-heavy kernels.
func TestPerArchOccupancyLimits(t *testing.T) {
	v100, _ := Lookup("v100")
	t4, _ := Lookup("t4")
	a100, _ := Lookup("a100")

	// 256 threads/block, light registers.
	ov, err := v100.ComputeOccupancy(256, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	ot, err := t4.ComputeOccupancy(256, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	oa, err := a100.ComputeOccupancy(256, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ov.WarpsPerSM != 64 || oa.WarpsPerSM != 64 {
		t.Errorf("V100/A100 warps = %d/%d, want 64", ov.WarpsPerSM, oa.WarpsPerSM)
	}
	if ot.WarpsPerSM != 32 || ot.BlocksPerSM != 4 {
		t.Errorf("T4 occupancy = %+v, want 32 warps in 4 blocks", ot)
	}

	// 48 KiB shared per block: 2 blocks on V100, 1 on T4, 3 on A100.
	for _, tc := range []struct {
		g      *GPU
		blocks int
	}{{v100, 2}, {t4, 1}, {a100, 3}} {
		occ, err := tc.g.ComputeOccupancy(64, 16, 48*1024)
		if err != nil {
			t.Fatal(err)
		}
		if occ.BlocksPerSM != tc.blocks || occ.Limiter != "shared" {
			t.Errorf("%s 48K shared occupancy = %+v, want %d shared-limited blocks",
				tc.g.Name, occ, tc.blocks)
		}
	}

	// 96 KiB shared per block fits a V100 and an A100 but not a T4.
	if _, err := t4.ComputeOccupancy(64, 16, 96*1024); err == nil {
		t.Error("96 KiB shared block must not fit a T4 SM")
	}
	if _, err := a100.ComputeOccupancy(64, 16, 96*1024); err != nil {
		t.Errorf("96 KiB shared block must fit an A100 SM: %v", err)
	}
}

// TestPerArchLatencyTables pins the model-vs-model latency shape the
// advisor depends on: T4's FP64 crawl, A100's faster conversions and
// global memory.
func TestPerArchLatencyTables(t *testing.T) {
	v100, _ := Lookup("v100")
	t4, _ := Lookup("t4")
	a100, _ := Lookup("a100")
	if t4.FP64IssueCost <= v100.FP64IssueCost {
		t.Error("T4 FP64 throughput must be far below V100")
	}
	if t4.FP64Latency <= v100.FP64Latency {
		t.Error("T4 FP64 latency must exceed V100")
	}
	if a100.ConvertLatency >= v100.ConvertLatency {
		t.Error("A100 conversions must be faster than V100")
	}
	if a100.GlobalLatency >= v100.GlobalLatency {
		t.Error("A100 global memory must be faster than V100")
	}
}
