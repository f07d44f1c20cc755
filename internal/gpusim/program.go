// Package gpusim simulates the execution of SASS kernels on a modeled
// GPU at cycle granularity: streaming multiprocessors with per-model
// warp scheduler counts, scoreboard barriers for variable-latency
// dependencies, per-opcode fixed latencies and pipe throughputs, an MSHR
// pool that produces memory-throttle stalls, an instruction cache that
// produces fetch stalls on far control transfers, and named-barrier
// (BAR.SYNC) synchronization. Every architectural parameter — geometry,
// latency tables, issue costs, front-end costs — comes from the
// arch.GPU model in Config (the paper's V100 by default; Turing and
// Ampere models are registered alongside it).
//
// This package substitutes for the GPU hardware in the GPA paper
// (Section 2) — the measurement half of Figure 2, feeding the PC
// sampler everything downstream consumes: it executes the same
// fixed-length ISA and exposes the
// same PC-sampling surface (periodic per-scheduler samples carrying a
// PC, an active/latency flag, and a CUPTI-style stall reason), so
// everything downstream — profiler, instruction blamer, optimizers,
// estimators — exercises the code paths the paper describes. Input is a
// flattened Program, a LaunchConfig, an optional Workload (trip counts,
// memory behaviour), and a Config carrying the arch.GPU model; output
// is a Result (cycles, issue counts, occupancy) plus the sample stream
// delivered to Config.Sink. Runs are deterministic for a fixed seed at
// every Parallelism level: an ordered sink gets the SMs' streams in SM
// order from one goroutine, a ShardedSink gets each SM's stream in a
// shard of its own while the SMs fan out.
package gpusim

import (
	"fmt"

	"gpa/internal/apierr"
	"gpa/internal/sass"
)

// Program is a module laid out in a flat instruction array, the way code
// resides in device memory: functions concatenated in module order, call
// and branch targets resolved to flat instruction indices.
type Program struct {
	Module *sass.Module
	// Instrs is the flattened instruction stream.
	Instrs []sass.Instruction
	// FuncOf[i] is the index (into Module.Functions) of the function
	// containing flat instruction i.
	FuncOf []int
	// Base[f] is the flat index of function f's first instruction.
	Base []int
	// target[i] is the flat target index of a control transfer at i
	// (-1 when not a transfer or target unresolved).
	target []int
	// meta[i] is the hot-path metadata of instruction i, precomputed so
	// the per-cycle scheduler loops never re-decode opcodes or control
	// bits (see instrMeta).
	meta []instrMeta
}

// instrMeta flattens the per-instruction facts the simulator's issue and
// readiness paths consult every cycle: opcode class, control-code fields,
// and the stall-reason classifications that otherwise require Opcode.Info
// calls and switch chains per access.
type instrMeta struct {
	waitMask uint8
	stall    uint8
	writeBar int8
	readBar  int8
	class    sass.ExecClass
	flags    uint8
	// ctrl is how the instruction leaves its PC (see ctrlKind), so issue
	// dispatches on it without reading the decoded instruction.
	ctrl ctrlKind
	// barReason is the stall reason consumers waiting on this
	// instruction's write barrier report (barrierReasonFor).
	barReason StallReason
	// issueStall is the reason reported while the post-issue stall-count
	// window is pending.
	issueStall StallReason
}

// instrMeta flag bits.
const (
	metaVarLat   = 1 << iota // variable latency (barrier-signalled)
	metaNeedMSHR             // memory op consuming MSHR slots
	metaMemory               // any memory-space access
)

// ctrlKind classifies an instruction by what it does to the warp's PC.
type ctrlKind uint8

const (
	ctrlSeq    ctrlKind = iota // falls through to pc+1
	ctrlCond                   // BRA/JMP/BRX under a predicate: asks Workload.Taken
	ctrlUncond                 // BRA/JMP/BRX always taken
	ctrlCall
	ctrlRet
	ctrlExit
	ctrlBar // BAR.SYNC: parks the warp until its block arrives
)

func ctrlKindOf(in *sass.Instruction) ctrlKind {
	switch in.Opcode {
	case sass.OpBRA, sass.OpJMP, sass.OpBRX:
		if in.Unconditional() {
			return ctrlUncond
		}
		return ctrlCond
	case sass.OpCAL:
		return ctrlCall
	case sass.OpRET:
		return ctrlRet
	case sass.OpEXIT:
		return ctrlExit
	case sass.OpBAR:
		return ctrlBar
	}
	return ctrlSeq
}

func buildMeta(in *sass.Instruction) instrMeta {
	info := in.Opcode.Info()
	m := instrMeta{
		waitMask: in.Ctrl.WaitMask,
		stall:    in.Ctrl.Stall,
		writeBar: int8(in.Ctrl.WriteBar),
		readBar:  int8(in.Ctrl.ReadBar),
		class:    info.Class,
		ctrl:     ctrlKindOf(in),
	}
	if info.VariableLatency {
		m.flags |= metaVarLat
	}
	if in.Opcode.IsMemory() {
		m.flags |= metaMemory
	}
	if spaceNeedsMSHR(in.Opcode) {
		m.flags |= metaNeedMSHR
	}
	m.barReason = barrierReasonFor(in.Opcode)
	if in.Ctrl.Stall > 2 && !in.Opcode.IsControl() {
		m.issueStall = ReasonExecutionDependency
	} else {
		m.issueStall = ReasonOther
	}
	return m
}

// Load flattens a module. Every branch must name a label in its
// function, every call a function present in the module, and no
// function may end in a conditional branch: a warp that falls through
// it would run off the function.
func Load(m *sass.Module) (*Program, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("gpusim: %w", err)
	}
	p := &Program{Module: m}
	for fi, f := range m.Functions {
		if ctrlKindOf(&f.Instrs[len(f.Instrs)-1]) == ctrlCond {
			return nil, fmt.Errorf("gpusim: %w: %s ends in a conditional branch, which can fall off its end",
				apierr.ErrBadKernel, f.Name)
		}
		p.Base = append(p.Base, len(p.Instrs))
		for i := range f.Instrs {
			p.Instrs = append(p.Instrs, f.Instrs[i])
			p.FuncOf = append(p.FuncOf, fi)
		}
	}
	p.target = make([]int, len(p.Instrs))
	for i := range p.Instrs {
		p.target[i] = -1
		in := &p.Instrs[i]
		tgt, ok := in.BranchTarget()
		if !ok {
			if in.Opcode.Info().Branch {
				return nil, fmt.Errorf("gpusim: %w: %s+0x%x: %s without a label target (indirect branches are not simulated)",
					apierr.ErrBadKernel, m.Functions[p.FuncOf[i]].Name, in.PC, in.Opcode.Info().Name)
			}
			continue
		}
		if in.Opcode == sass.OpCAL {
			found := false
			for fi, f := range m.Functions {
				if f.Name == tgt.Sym {
					p.target[i] = p.Base[fi]
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("gpusim: %w: CAL to unknown function %q", apierr.ErrBadKernel, tgt.Sym)
			}
			continue
		}
		fi := p.FuncOf[i]
		local := int(tgt.PC) / sass.InstrBytes
		f := m.Functions[fi]
		if local < 0 || local >= len(f.Instrs) {
			return nil, fmt.Errorf("gpusim: %w: %s: branch target out of function", apierr.ErrBadKernel, f.Name)
		}
		p.target[i] = p.Base[fi] + local
	}
	p.meta = make([]instrMeta, len(p.Instrs))
	for i := range p.Instrs {
		p.meta[i] = buildMeta(&p.Instrs[i])
	}
	return p, nil
}

// EntryOf returns the flat index of the named function's first
// instruction.
func (p *Program) EntryOf(name string) (int, error) {
	for fi, f := range p.Module.Functions {
		if f.Name == name {
			return p.Base[fi], nil
		}
	}
	return 0, fmt.Errorf("gpusim: %w: no function %q", apierr.ErrBadKernel, name)
}

// Target returns the flat target index of the control transfer at flat
// index i, or -1.
func (p *Program) Target(i int) int { return p.target[i] }

// FuncName returns the name of the function containing flat index i.
func (p *Program) FuncName(i int) string {
	return p.Module.Functions[p.FuncOf[i]].Name
}

// LocalIndex converts a flat index to an instruction index within its
// function.
func (p *Program) LocalIndex(i int) int { return i - p.Base[p.FuncOf[i]] }

// LocalPC converts a flat index to a byte PC within its function.
func (p *Program) LocalPC(i int) uint32 {
	return uint32(p.LocalIndex(i) * sass.InstrBytes)
}

// FlatIndex converts (function name, label) to a flat instruction index
// using the module's label table (available for freshly assembled
// modules; label tables do not survive cubin packing).
func (p *Program) FlatIndex(fn, label string) (int, error) {
	for fi, f := range p.Module.Functions {
		if f.Name != fn {
			continue
		}
		idx, ok := f.Labels[label]
		if !ok {
			return 0, fmt.Errorf("gpusim: %w: function %q has no label %q", apierr.ErrBadKernel, fn, label)
		}
		return p.Base[fi] + idx, nil
	}
	return 0, fmt.Errorf("gpusim: %w: no function %q", apierr.ErrBadKernel, fn)
}

// LineAt returns the source mapping of flat index i.
func (p *Program) LineAt(i int) sass.LineInfo {
	fi := p.FuncOf[i]
	return p.Module.Functions[fi].Lines[p.LocalIndex(i)]
}
