package sass

import (
	"fmt"
	"strings"
)

// InstrBytes is the fixed instruction size: Volta and later NVIDIA
// architectures use one 128-bit word per instruction.
const InstrBytes = 16

// Instruction is a single decoded GPU instruction.
type Instruction struct {
	// PC is the byte address of the instruction within its function.
	PC uint32
	// Pred is the guard predicate (Always when the instruction is
	// unconditional).
	Pred   Predicate
	Opcode Opcode
	Mods   ModMask
	// Ops holds destination operands first (Opcode.Info().NumDefs of
	// them), then sources.
	Ops  []Operand
	Ctrl Control
}

// Dests returns the destination operands.
func (in *Instruction) Dests() []Operand {
	n := in.Opcode.Info().NumDefs
	if n > len(in.Ops) {
		n = len(in.Ops)
	}
	return in.Ops[:n]
}

// Sources returns the source operands.
func (in *Instruction) Sources() []Operand {
	n := in.Opcode.Info().NumDefs
	if n > len(in.Ops) {
		n = len(in.Ops)
	}
	return in.Ops[n:]
}

// is64BitAddress reports whether a memory operand of this instruction
// holds a 64-bit address in a register pair (base, base+1). Global and
// generic memory use a 64-bit address space (Table 1: "the source operand
// is a 64-bit value comprised of two registers"); the .E modifier forces
// extended addressing for any space.
func (in *Instruction) is64BitAddress() bool {
	if in.Mods.Has(ModE) {
		return true
	}
	switch in.Opcode.Info().Class {
	case ClassMemGlobal, ClassMemGeneric, ClassMemLocal:
		return true
	}
	return false
}

// appendRegPair appends r (and r+1 when wide is true and r is a GPR)
// skipping hardwired-zero registers.
func appendRegPair(dst []Reg, r Reg, wide bool) []Reg {
	if r.IsZero() {
		return dst
	}
	dst = append(dst, r)
	if wide && r.Class == RegGPR && int(r.Index)+1 <= MaxGPR {
		dst = append(dst, Reg{RegGPR, r.Index + 1})
	}
	return dst
}

// Defs returns the registers written by the instruction, including the
// virtual barrier registers implied by the control code: a write-barrier
// or read-barrier allocation is modelled as a def of B[i] so that
// barrier-mediated dependencies appear in ordinary def-use chains
// (Section 4, "Virtual barrier registers").
func (in *Instruction) Defs() []Reg {
	var defs []Reg
	wide := in.Mods.AccessWidth() >= 64
	for _, o := range in.Dests() {
		if o.Kind == KindReg {
			defs = appendRegPair(defs, o.Reg, wide && o.Reg.Class == RegGPR)
		}
	}
	if in.Ctrl.WriteBar != NoBarrier {
		defs = append(defs, B(int(in.Ctrl.WriteBar)))
	}
	if in.Ctrl.ReadBar != NoBarrier {
		defs = append(defs, B(int(in.Ctrl.ReadBar)))
	}
	return defs
}

// Uses returns the registers read by the instruction: source register
// operands (with 64-bit values and addresses expanding to register
// pairs), memory base registers, the guard predicate register, and the
// barrier registers named by the wait mask.
func (in *Instruction) Uses() []Reg {
	var uses []Reg
	wideVal := in.Mods.AccessWidth() >= 64
	for _, o := range in.Sources() {
		switch o.Kind {
		case KindReg:
			uses = appendRegPair(uses, o.Reg, wideVal && o.Reg.Class == RegGPR)
		case KindMem:
			uses = appendRegPair(uses, o.Reg, in.is64BitAddress())
		}
	}
	// Stores read the data they write; the data operand is a "dest
	// slot" only syntactically for loads, so for stores all operands are
	// sources already. Predicate guard:
	if !in.Pred.IsAlways() {
		uses = append(uses, in.Pred.Reg)
	}
	for b := 0; b < NumBarriers; b++ {
		if in.Ctrl.Waits(b) {
			uses = append(uses, B(b))
		}
	}
	return uses
}

// BranchTarget returns the label operand of a control transfer, if any.
func (in *Instruction) BranchTarget() (Operand, bool) {
	if !in.Opcode.Info().Branch {
		return Operand{}, false
	}
	for _, o := range in.Ops {
		if o.Kind == KindLabel {
			return o, true
		}
	}
	return Operand{}, false
}

// IsExit reports whether the instruction ends the thread (EXIT) or
// returns from a device function (RET).
func (in *Instruction) IsExit() bool {
	return in.Opcode == OpEXIT || in.Opcode == OpRET
}

// Unconditional reports whether the instruction always executes
// (predicate @PT).
func (in *Instruction) Unconditional() bool { return in.Pred.IsAlways() }

// String renders the instruction in assembler syntax, control code
// included.
func (in *Instruction) String() string {
	var b strings.Builder
	if p := in.Pred.String(); p != "" {
		b.WriteString(p)
		b.WriteByte(' ')
	}
	b.WriteString(in.Opcode.String())
	for m := Modifier(0); m < numModifiers; m++ {
		if in.Mods.Has(m) {
			b.WriteByte('.')
			b.WriteString(m.String())
		}
	}
	for i, o := range in.Ops {
		if i == 0 {
			b.WriteByte(' ')
		} else {
			b.WriteString(", ")
		}
		b.WriteString(o.String())
	}
	if c := in.Ctrl.String(); c != "" {
		b.WriteByte(' ')
		b.WriteString(c)
	}
	return b.String()
}

// Visibility is the linkage of a function symbol.
type Visibility uint8

// Function visibilities (the paper annotates global vs device functions
// from the symbol table's visibility field).
const (
	VisGlobal Visibility = iota // kernel entry (__global__)
	VisDevice                   // device function (__device__)
)

// String names the visibility.
func (v Visibility) String() string {
	if v == VisGlobal {
		return "global"
	}
	return "device"
}

// InlineFrame is one level of an inline stack: the named function was
// inlined at file:line of its caller.
type InlineFrame struct {
	Function string
	File     string
	Line     int
}

// LineInfo maps one instruction to its source position, including the
// inline stack (outermost caller first).
type LineInfo struct {
	File   string
	Line   int
	Inline []InlineFrame
}

// Function is a contiguous run of instructions with a symbol, visibility,
// and per-instruction source mapping.
type Function struct {
	Name       string
	Visibility Visibility
	Instrs     []Instruction
	// Lines[i] is the source mapping of Instrs[i].
	Lines []LineInfo
	// Labels maps label names to instruction indices.
	Labels map[string]int
}

// Module is a set of functions assembled together, analogous to one
// CUBIN: one or more kernels plus the device functions they call.
type Module struct {
	// Arch is the SM architecture flag, e.g. 70 for Volta.
	Arch int
	// Functions in definition order; entry kernels have VisGlobal.
	Functions []*Function
}

// Function looks up a function by name.
func (m *Module) Function(name string) *Function {
	for _, f := range m.Functions {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Kernels returns the functions with global visibility.
func (m *Module) Kernels() []*Function {
	var ks []*Function
	for _, f := range m.Functions {
		if f.Visibility == VisGlobal {
			ks = append(ks, f)
		}
	}
	return ks
}

// Validate performs structural checks: non-empty functions, resolvable
// call targets, legal registers and barrier indices.
func (m *Module) Validate() error {
	if len(m.Functions) == 0 {
		return fmt.Errorf("sass: module has no functions")
	}
	for _, f := range m.Functions {
		if len(f.Instrs) == 0 {
			return fmt.Errorf("sass: function %q is empty", f.Name)
		}
		if len(f.Lines) != len(f.Instrs) {
			return fmt.Errorf("sass: function %q: %d line records for %d instructions",
				f.Name, len(f.Lines), len(f.Instrs))
		}
		last := f.Instrs[len(f.Instrs)-1]
		if !last.IsExit() && last.Opcode != OpBRA && last.Opcode != OpJMP {
			return fmt.Errorf("sass: function %q does not end in EXIT/RET/branch", f.Name)
		}
		for i := range f.Instrs {
			in := &f.Instrs[i]
			if !in.Opcode.Valid() {
				return fmt.Errorf("sass: %s+0x%x: invalid opcode", f.Name, in.PC)
			}
			if wb := in.Ctrl.WriteBar; wb != NoBarrier && (wb < 0 || int(wb) >= NumBarriers) {
				return fmt.Errorf("sass: %s+0x%x: write barrier %d out of range", f.Name, in.PC, wb)
			}
			if rb := in.Ctrl.ReadBar; rb != NoBarrier && (rb < 0 || int(rb) >= NumBarriers) {
				return fmt.Errorf("sass: %s+0x%x: read barrier %d out of range", f.Name, in.PC, rb)
			}
			if in.Ctrl.WaitMask >= 1<<NumBarriers {
				return fmt.Errorf("sass: %s+0x%x: wait mask 0x%x out of range", f.Name, in.PC, in.Ctrl.WaitMask)
			}
			if in.Opcode == OpCAL {
				tgt, ok := in.BranchTarget()
				if !ok {
					return fmt.Errorf("sass: %s+0x%x: CAL without target", f.Name, in.PC)
				}
				if m.Function(tgt.Sym) == nil {
					return fmt.Errorf("sass: %s+0x%x: CAL to unknown function %q", f.Name, in.PC, tgt.Sym)
				}
			}
		}
	}
	return nil
}
