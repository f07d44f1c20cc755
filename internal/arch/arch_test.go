package arch

import (
	"testing"

	"gpa/internal/sass"
)

func TestFixedLatency(t *testing.T) {
	g := VoltaV100()
	cases := []struct {
		op   sass.Opcode
		mods sass.ModMask
		want int
	}{
		{sass.OpIADD, 0, 4},
		{sass.OpFFMA, 0, 4},
		{sass.OpDFMA, 0, 8},
		{sass.OpF2F, 0, 14}, // conversions are long-latency on Volta
		{sass.OpMOV, 0, 4},
		{sass.OpIMAD, sass.ModMask(0).With(sass.ModWide), 5},
	}
	for _, tc := range cases {
		if got := g.FixedLatency(tc.op, tc.mods); got != tc.want {
			t.Errorf("FixedLatency(%v) = %d, want %d", tc.op, got, tc.want)
		}
	}
}

func TestVariableLatencyBounds(t *testing.T) {
	g := VoltaV100()
	if got := g.VariableLatencyBound(sass.OpLDG); got != g.GlobalLatencyTLB {
		t.Errorf("LDG bound = %d, want TLB miss latency %d", got, g.GlobalLatencyTLB)
	}
	if g.VariableLatencyBound(sass.OpLDS) >= g.VariableLatencyBound(sass.OpLDG) {
		t.Error("shared memory bound must be far below global bound")
	}
	if g.LatencyBound(sass.OpLDG, 0) != g.GlobalLatencyTLB {
		t.Error("LatencyBound must dispatch to the variable bound for LDG")
	}
	if g.LatencyBound(sass.OpIADD, 0) != 4 {
		t.Error("LatencyBound must dispatch to the fixed latency for IADD")
	}
}

func TestIssueCost(t *testing.T) {
	g := VoltaV100()
	if g.IssueCost(sass.OpDFMA) <= g.IssueCost(sass.OpFFMA) {
		t.Error("FP64 must be lower throughput than FP32")
	}
	if g.IssueCost(sass.OpMUFU) <= g.IssueCost(sass.OpIADD) {
		t.Error("MUFU must be lower throughput than the integer pipe")
	}
}

func TestComputeOccupancy(t *testing.T) {
	g := VoltaV100()

	// 256 threads, light registers: limited by warps (64/8 = 8 blocks).
	occ, err := g.ComputeOccupancy(256, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	if occ.BlocksPerSM != 8 || occ.WarpsPerSM != 64 || occ.Limiter != "threads" {
		t.Errorf("256t occupancy = %+v", occ)
	}
	if occ.WarpsPerScheduler != 16 {
		t.Errorf("warps/scheduler = %d, want 16", occ.WarpsPerScheduler)
	}

	// 1024 threads using all the registers: register-limited.
	occ, err = g.ComputeOccupancy(1024, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if occ.Limiter != "registers" {
		t.Errorf("heavy-register kernel limiter = %q, want registers", occ.Limiter)
	}
	if occ.WarpsPerSM >= 64 {
		t.Errorf("register pressure must reduce warps, got %d", occ.WarpsPerSM)
	}

	// Shared-memory bound: 48 KiB per block allows only 2 blocks.
	occ, err = g.ComputeOccupancy(64, 16, 48*1024)
	if err != nil {
		t.Fatal(err)
	}
	if occ.BlocksPerSM != 2 || occ.Limiter != "shared" {
		t.Errorf("shared-bound occupancy = %+v", occ)
	}

	// Tiny blocks: block-count limited.
	occ, err = g.ComputeOccupancy(32, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	if occ.BlocksPerSM != 32 || occ.Limiter != "blocks" {
		t.Errorf("tiny-block occupancy = %+v", occ)
	}

	// Errors.
	if _, err := g.ComputeOccupancy(0, 0, 0); err == nil {
		t.Error("block size 0 must error")
	}
	if _, err := g.ComputeOccupancy(2048, 0, 0); err == nil {
		t.Error("block size 2048 must error")
	}
	if _, err := g.ComputeOccupancy(1024, 0, 200*1024); err == nil {
		t.Error("oversized shared memory must error")
	}
}
