// Package sass models the GPU instruction set architecture the
// pipeline's kernels are written in: fixed-length 128-bit instructions
// carrying an opcode, modifiers, a guard predicate,
// register/memory/immediate operands, and a control code with stall
// cycles, a yield flag, write/read barrier indices and a wait mask (see
// Table 1 of the GPA paper). This encoding was introduced with Volta
// and is shared by Turing and Ampere; the architecture a module
// targets is recorded as an SM flag (.module sm_70), and the GPU model
// a launch runs on is named by the caller (internal/arch), not here.
//
// In the Figure 2 pipeline this package is the front door: kernel
// source (SASS text) or a CUBIN payload comes in, a *Module of typed
// instructions comes out, consumed by the simulator, the CFG builder,
// and the blamer's def/use slicing. The package provides:
//
//   - typed registers (general purpose, predicate, virtual barrier,
//     special),
//   - an opcode table with dependency-relevant properties (memory space,
//     fixed vs variable latency, execution pipeline),
//   - def/use extraction including the virtual barrier registers B0-B5
//     that the GPA instruction blamer slices over (Section 4.1),
//   - a textual assembler/disassembler for writing kernels by hand, and
//   - a binary codec packing each instruction into a 128-bit word.
package sass

import "fmt"

// RegClass discriminates the register files visible to instructions.
type RegClass uint8

const (
	// RegGPR is a 32-bit general purpose register R0-R254; R255 is RZ,
	// the constant-zero register.
	RegGPR RegClass = iota
	// RegPred is a 1-bit predicate register P0-P6; P7 is PT (always
	// true).
	RegPred
	// RegBarrier is one of the six virtual barrier registers B0-B5 used
	// to track variable-latency dependencies. Barrier registers never
	// appear as textual operands; they are implied by the control code.
	RegBarrier
	// RegSpecial is a read-only special register such as SR_TID.X.
	RegSpecial
)

// Indices of distinguished registers.
const (
	RZIndex = 255 // constant zero GPR
	PTIndex = 7   // constant true predicate
	// NumBarriers is the number of virtual barrier registers (B0-B5).
	NumBarriers = 6
	// MaxGPR is the highest allocatable general purpose register index.
	MaxGPR = 254
)

// Special register indices.
const (
	SRTidX uint8 = iota
	SRTidY
	SRTidZ
	SRCtaX
	SRCtaY
	SRCtaZ
	SRLaneID
	SRClock
)

var specialNames = [...]string{
	SRTidX:   "SR_TID.X",
	SRTidY:   "SR_TID.Y",
	SRTidZ:   "SR_TID.Z",
	SRCtaX:   "SR_CTAID.X",
	SRCtaY:   "SR_CTAID.Y",
	SRCtaZ:   "SR_CTAID.Z",
	SRLaneID: "SR_LANEID",
	SRClock:  "SR_CLOCK",
}

// Reg identifies a single architectural register.
type Reg struct {
	Class RegClass
	Index uint8
}

// Convenience constructors.

// R returns the general purpose register Rn.
func R(n int) Reg { return Reg{RegGPR, uint8(n)} }

// P returns the predicate register Pn.
func P(n int) Reg { return Reg{RegPred, uint8(n)} }

// B returns the virtual barrier register Bn.
func B(n int) Reg { return Reg{RegBarrier, uint8(n)} }

// RZ is the constant-zero general purpose register.
var RZ = Reg{RegGPR, RZIndex}

// PT is the constant-true predicate register.
var PT = Reg{RegPred, PTIndex}

// IsZero reports whether the register reads as a hardwired constant
// (RZ or PT) and therefore carries no dependency.
func (r Reg) IsZero() bool {
	return (r.Class == RegGPR && r.Index == RZIndex) ||
		(r.Class == RegPred && r.Index == PTIndex)
}

// String renders the register in SASS syntax.
func (r Reg) String() string {
	switch r.Class {
	case RegGPR:
		if r.Index == RZIndex {
			return "RZ"
		}
		return fmt.Sprintf("R%d", r.Index)
	case RegPred:
		if r.Index == PTIndex {
			return "PT"
		}
		return fmt.Sprintf("P%d", r.Index)
	case RegBarrier:
		return fmt.Sprintf("B%d", r.Index)
	case RegSpecial:
		if int(r.Index) < len(specialNames) {
			return specialNames[r.Index]
		}
	}
	return fmt.Sprintf("?reg(%d,%d)", r.Class, r.Index)
}

// Predicate is an instruction guard: the instruction executes only when
// the predicate register evaluates to the required truth value. The zero
// value (PT, not negated) means "always execute".
type Predicate struct {
	Reg     Reg // must be RegPred
	Negated bool
}

// Always is the unconditional predicate @PT.
var Always = Predicate{Reg: PT}

// IsAlways reports whether the predicate is the trivial @PT guard.
func (p Predicate) IsAlways() bool {
	return (p.Reg == Reg{} && !p.Negated) || (p.Reg == PT && !p.Negated)
}

// String renders the guard in SASS syntax ("@P0", "@!P3"); the always
// predicate renders as the empty string.
func (p Predicate) String() string {
	if p.IsAlways() {
		return ""
	}
	if p.Negated {
		return "@!" + p.Reg.String()
	}
	return "@" + p.Reg.String()
}

// PredicateSet tracks the union of predicates seen on a backward-slicing
// search path (Section 4: "Let P be the union of def instructions'
// predicates on the path"). The set contains a predicate p' iff p' was
// added, both polarities of its register were added, or Always was added.
type PredicateSet struct {
	always bool
	pos    uint8 // bit i: Pi seen
	neg    uint8 // bit i: !Pi seen
}

// Add inserts a predicate into the set.
func (s *PredicateSet) Add(p Predicate) {
	if p.IsAlways() {
		s.always = true
		return
	}
	bit := uint8(1) << p.Reg.Index
	if p.Negated {
		s.neg |= bit
	} else {
		s.pos |= bit
	}
}

// Contains reports whether the set covers predicate p per the paper's
// containment rule: p ∈ P, or _ ∈ P, or both polarities of p's register
// are in P (their union is "_").
func (s *PredicateSet) Contains(p Predicate) bool {
	if s.always {
		return true
	}
	// Both polarities of any register union to "_", which covers every
	// predicate.
	if s.pos&s.neg != 0 {
		return true
	}
	if p.IsAlways() {
		return false
	}
	bit := uint8(1) << p.Reg.Index
	if p.Negated {
		return s.neg&bit != 0
	}
	return s.pos&bit != 0
}
