package profiler

import (
	"context"
	"path/filepath"
	"testing"

	"gpa/internal/arch"
	"gpa/internal/gpusim"
	"gpa/internal/sass"
)

const kernelSrc = `
.module sm_70
.func stencil global
.line st.cu 10
	MOV R0, 0x0 {S:2}
LOOP:
.line st.cu 12
	LDG.E.32 R4, [R2] {S:1, W:0}
.line st.cu 13
	FADD R5, R4, R5 {S:4, Q:0}
	IADD R0, R0, 0x1 {S:4}
	ISETP P0, R0, 0x40 {S:4}
BR0:	@P0 BRA LOOP {S:5}
	EXIT
`

func collect(t *testing.T, opts Options) (*sass.Module, *Profile) {
	t.Helper()
	m := sass.MustAssemble(kernelSrc)
	prog, err := gpusim.Load(m)
	if err != nil {
		t.Fatal(err)
	}
	spec := &gpusim.Spec{Trips: map[gpusim.Site]gpusim.TripFunc{
		{Func: "stencil", Label: "BR0"}: gpusim.UniformTrips(63),
	}}
	wl, err := spec.Bind(prog)
	if err != nil {
		t.Fatal(err)
	}
	launch := gpusim.LaunchConfig{Entry: "stencil", Grid: gpusim.Dim(4), Block: gpusim.Dim(128), RegsPerThread: 16}
	p, err := CollectProgram(context.Background(), prog, launch, wl, opts)
	if err != nil {
		t.Fatalf("CollectProgram: %v", err)
	}
	return m, p
}

func TestCollectBasics(t *testing.T) {
	_, p := collect(t, Options{GPU: arch.VoltaV100(), SimSMs: 1, Seed: 7})
	if p.Kernel != "stencil" || p.Arch != 70 {
		t.Errorf("kernel/arch = %q/%d", p.Kernel, p.Arch)
	}
	if p.Cycles <= 0 || p.TotalSamples <= 0 {
		t.Fatalf("empty profile: %+v", p)
	}
	if p.TotalSamples != p.ActiveSamples+p.LatencySamples {
		t.Errorf("sample accounting: %d != %d + %d", p.TotalSamples, p.ActiveSamples, p.LatencySamples)
	}
	if p.IssueRatio <= 0 || p.IssueRatio >= 1 {
		t.Errorf("issue ratio = %v", p.IssueRatio)
	}
	if p.Blocks != 4 || p.ThreadsPerBlock != 128 {
		t.Errorf("launch stats: %+v", p)
	}
	if p.WarpsPerScheduler <= 0 {
		t.Errorf("warps per scheduler = %d", p.WarpsPerScheduler)
	}
	if len(p.Records) == 0 {
		t.Fatal("no per-PC records")
	}
	// The FADD consumer (pc 0x20) must carry memory dependency stalls.
	var found bool
	for _, r := range p.Records {
		if r.Func == "stencil" && r.PC == 0x20 {
			found = true
			if r.Stalls["memory_dependency"] == 0 {
				t.Errorf("consumer record has no memory stalls: %+v", r)
			}
			if r.File != "st.cu" || r.Line != 13 {
				t.Errorf("consumer line mapping = %s:%d", r.File, r.Line)
			}
		}
	}
	if !found {
		t.Error("no record for the FADD consumer at 0x20")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	_, p := collect(t, Options{GPU: arch.VoltaV100(), SimSMs: 1, Seed: 7})
	path := filepath.Join(t.TempDir(), "profile.json")
	if err := p.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if got.Kernel != p.Kernel || got.Cycles != p.Cycles || got.TotalSamples != p.TotalSamples {
		t.Errorf("round trip lost data: %+v vs %+v", got, p)
	}
	if len(got.Records) != len(p.Records) {
		t.Errorf("records: %d vs %d", len(got.Records), len(p.Records))
	}
}

func TestFuncViews(t *testing.T) {
	m, p := collect(t, Options{GPU: arch.VoltaV100(), SimSMs: 1, Seed: 7})
	views, err := p.FuncViews(m)
	if err != nil {
		t.Fatalf("FuncViews: %v", err)
	}
	v := views["stencil"]
	if v == nil {
		t.Fatal("no view for stencil")
	}
	if len(v.Stats) != len(m.Function("stencil").Instrs) {
		t.Fatalf("view length %d", len(v.Stats))
	}
	// LDG at index 1 issued 64 times per warp set: 4 blocks x 4 warps x
	// 64 iterations but only simulated SMs count; just require > 0 and
	// consistency with stats.
	if v.Issued[1] == 0 {
		t.Error("LDG has no issue count")
	}
	if v.Stats[2].Stalls[3] == 0 { // ReasonMemoryDependency == 3
		t.Error("consumer FADD has no memory dependency stalls in view")
	}
	var total int64
	for _, st := range v.Stats {
		total += st.Total
	}
	if total != p.TotalSamples {
		t.Errorf("view total %d != profile total %d", total, p.TotalSamples)
	}
}

func TestFuncViewsRejectsForeignProfile(t *testing.T) {
	_, p := collect(t, Options{GPU: arch.VoltaV100(), SimSMs: 1, Seed: 7})
	other := sass.MustAssemble(`
.func different global
	EXIT
`)
	if _, err := p.FuncViews(other); err == nil {
		t.Error("FuncViews accepted a mismatched module")
	}
}
