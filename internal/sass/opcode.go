package sass

import "fmt"

// Opcode identifies an instruction mnemonic.
type Opcode uint8

// The supported Volta-style opcode set. The selection covers every
// instruction class the GPA analyses distinguish: global/local/shared/
// constant memory, fixed- and variable-latency arithmetic, transcendental
// (MUFU), conversions, control flow, and synchronization.
const (
	OpInvalid Opcode = iota

	// Global memory.
	OpLDG // load global
	OpSTG // store global
	// Local memory (register spills).
	OpLDL
	OpSTL
	// Shared memory.
	OpLDS
	OpSTS
	// Constant memory.
	OpLDC
	// Generic.
	OpLD
	OpST
	// Atomics.
	OpATOM
	OpRED

	// Integer arithmetic.
	OpIADD
	OpIADD3
	OpIMAD
	OpIMUL
	OpISETP
	OpIMNMX
	OpIABS
	OpSHF
	OpSHL
	OpSHR
	OpLOP
	OpLOP3
	OpPOPC
	OpFLO
	OpIDIV // integer division (expanded by real compilers; kept as a long-latency pseudo-op)

	// Single-precision float.
	OpFADD
	OpFMUL
	OpFFMA
	OpFSETP
	OpFMNMX
	OpFSEL

	// Double-precision float.
	OpDADD
	OpDMUL
	OpDFMA
	OpDSETP

	// Transcendental / special function unit.
	OpMUFU

	// Conversions.
	OpF2F
	OpF2I
	OpI2F
	OpI2I

	// Data movement.
	OpMOV
	OpSEL
	OpSHFL
	OpPRMT
	OpS2R // special register read
	OpCS2R

	// Predicate logic.
	OpPSETP
	OpPLOP3

	// Control flow.
	OpBRA
	OpBRX
	OpJMP
	OpCAL
	OpRET
	OpEXIT
	OpBSSY
	OpBSYNC
	OpBREAK

	// Synchronization.
	OpBAR
	OpMEMBAR
	OpDEPBAR

	OpNOP

	numOpcodes
)

// ExecClass groups opcodes by the analysis-relevant behaviour of their
// execution: which pipeline they occupy and how their latency is resolved.
type ExecClass uint8

const (
	// ClassMemGlobal: variable latency through the LSU to global memory.
	ClassMemGlobal ExecClass = iota
	// ClassMemLocal: variable latency; local memory traffic indicates
	// register spills.
	ClassMemLocal
	// ClassMemShared: variable (short) latency through shared memory.
	ClassMemShared
	// ClassMemConst: constant-bank load.
	ClassMemConst
	// ClassMemGeneric: generic-address load/store.
	ClassMemGeneric
	// ClassIntFixed: fixed-latency integer ALU.
	ClassIntFixed
	// ClassFP32Fixed: fixed-latency FP32 FMA pipe.
	ClassFP32Fixed
	// ClassFP64: fixed-latency but low-throughput FP64 pipe.
	ClassFP64
	// ClassMUFU: variable-latency special function unit.
	ClassMUFU
	// ClassConvert: fixed-latency conversion pipe (runs on the FP64/XU
	// path on Volta, hence long latency).
	ClassConvert
	// ClassControl: branches, calls, returns.
	ClassControl
	// ClassSync: named-barrier and memory-barrier synchronization.
	ClassSync
	// ClassMisc: moves, predicate ops, NOP.
	ClassMisc
)

// OpInfo describes static properties of an opcode.
type OpInfo struct {
	Name  string
	Class ExecClass
	// VariableLatency marks instructions whose completion is signalled
	// through a write/read barrier rather than fixed stall cycles.
	VariableLatency bool
	// Store marks instructions that write memory (no GPR destination).
	Store bool
	// Load marks instructions that read memory into a GPR.
	Load bool
	// NumDefs is the number of leading operands that are destinations.
	NumDefs int
	// Branch marks control transfers with a code target operand.
	Branch bool
}

var opTable = [numOpcodes]OpInfo{
	OpInvalid: {Name: "INVALID", Class: ClassMisc},

	OpLDG: {Name: "LDG", Class: ClassMemGlobal, VariableLatency: true, Load: true, NumDefs: 1},
	OpSTG: {Name: "STG", Class: ClassMemGlobal, VariableLatency: true, Store: true},
	OpLDL: {Name: "LDL", Class: ClassMemLocal, VariableLatency: true, Load: true, NumDefs: 1},
	OpSTL: {Name: "STL", Class: ClassMemLocal, VariableLatency: true, Store: true},
	OpLDS: {Name: "LDS", Class: ClassMemShared, VariableLatency: true, Load: true, NumDefs: 1},
	OpSTS: {Name: "STS", Class: ClassMemShared, VariableLatency: true, Store: true},
	OpLDC: {Name: "LDC", Class: ClassMemConst, VariableLatency: true, Load: true, NumDefs: 1},
	OpLD:  {Name: "LD", Class: ClassMemGeneric, VariableLatency: true, Load: true, NumDefs: 1},
	OpST:  {Name: "ST", Class: ClassMemGeneric, VariableLatency: true, Store: true},

	OpATOM: {Name: "ATOM", Class: ClassMemGlobal, VariableLatency: true, Load: true, Store: true, NumDefs: 1},
	OpRED:  {Name: "RED", Class: ClassMemGlobal, VariableLatency: true, Store: true},

	OpIADD:  {Name: "IADD", Class: ClassIntFixed, NumDefs: 1},
	OpIADD3: {Name: "IADD3", Class: ClassIntFixed, NumDefs: 1},
	OpIMAD:  {Name: "IMAD", Class: ClassIntFixed, NumDefs: 1},
	OpIMUL:  {Name: "IMUL", Class: ClassIntFixed, NumDefs: 1},
	OpISETP: {Name: "ISETP", Class: ClassIntFixed, NumDefs: 1},
	OpIMNMX: {Name: "IMNMX", Class: ClassIntFixed, NumDefs: 1},
	OpIABS:  {Name: "IABS", Class: ClassIntFixed, NumDefs: 1},
	OpSHF:   {Name: "SHF", Class: ClassIntFixed, NumDefs: 1},
	OpSHL:   {Name: "SHL", Class: ClassIntFixed, NumDefs: 1},
	OpSHR:   {Name: "SHR", Class: ClassIntFixed, NumDefs: 1},
	OpLOP:   {Name: "LOP", Class: ClassIntFixed, NumDefs: 1},
	OpLOP3:  {Name: "LOP3", Class: ClassIntFixed, NumDefs: 1},
	OpPOPC:  {Name: "POPC", Class: ClassIntFixed, NumDefs: 1},
	OpFLO:   {Name: "FLO", Class: ClassIntFixed, NumDefs: 1},
	OpIDIV:  {Name: "IDIV", Class: ClassMUFU, VariableLatency: true, NumDefs: 1},

	OpFADD:  {Name: "FADD", Class: ClassFP32Fixed, NumDefs: 1},
	OpFMUL:  {Name: "FMUL", Class: ClassFP32Fixed, NumDefs: 1},
	OpFFMA:  {Name: "FFMA", Class: ClassFP32Fixed, NumDefs: 1},
	OpFSETP: {Name: "FSETP", Class: ClassFP32Fixed, NumDefs: 1},
	OpFMNMX: {Name: "FMNMX", Class: ClassFP32Fixed, NumDefs: 1},
	OpFSEL:  {Name: "FSEL", Class: ClassFP32Fixed, NumDefs: 1},

	OpDADD:  {Name: "DADD", Class: ClassFP64, NumDefs: 1},
	OpDMUL:  {Name: "DMUL", Class: ClassFP64, NumDefs: 1},
	OpDFMA:  {Name: "DFMA", Class: ClassFP64, NumDefs: 1},
	OpDSETP: {Name: "DSETP", Class: ClassFP64, NumDefs: 1},

	OpMUFU: {Name: "MUFU", Class: ClassMUFU, VariableLatency: true, NumDefs: 1},

	OpF2F: {Name: "F2F", Class: ClassConvert, NumDefs: 1},
	OpF2I: {Name: "F2I", Class: ClassConvert, NumDefs: 1},
	OpI2F: {Name: "I2F", Class: ClassConvert, NumDefs: 1},
	OpI2I: {Name: "I2I", Class: ClassConvert, NumDefs: 1},

	OpMOV:  {Name: "MOV", Class: ClassMisc, NumDefs: 1},
	OpSEL:  {Name: "SEL", Class: ClassMisc, NumDefs: 1},
	OpSHFL: {Name: "SHFL", Class: ClassMemShared, VariableLatency: true, NumDefs: 1},
	OpPRMT: {Name: "PRMT", Class: ClassIntFixed, NumDefs: 1},
	OpS2R:  {Name: "S2R", Class: ClassMisc, VariableLatency: true, NumDefs: 1},
	OpCS2R: {Name: "CS2R", Class: ClassMisc, NumDefs: 1},

	OpPSETP: {Name: "PSETP", Class: ClassMisc, NumDefs: 1},
	OpPLOP3: {Name: "PLOP3", Class: ClassMisc, NumDefs: 1},

	OpBRA:   {Name: "BRA", Class: ClassControl, Branch: true},
	OpBRX:   {Name: "BRX", Class: ClassControl, Branch: true},
	OpJMP:   {Name: "JMP", Class: ClassControl, Branch: true},
	OpCAL:   {Name: "CAL", Class: ClassControl, Branch: true},
	OpRET:   {Name: "RET", Class: ClassControl},
	OpEXIT:  {Name: "EXIT", Class: ClassControl},
	OpBSSY:  {Name: "BSSY", Class: ClassControl, Branch: true},
	OpBSYNC: {Name: "BSYNC", Class: ClassControl},
	OpBREAK: {Name: "BREAK", Class: ClassControl},

	OpBAR:    {Name: "BAR", Class: ClassSync},
	OpMEMBAR: {Name: "MEMBAR", Class: ClassSync},
	OpDEPBAR: {Name: "DEPBAR", Class: ClassSync},

	OpNOP: {Name: "NOP", Class: ClassMisc},
}

var opByName = func() map[string]Opcode {
	m := make(map[string]Opcode, numOpcodes)
	for op := Opcode(1); op < numOpcodes; op++ {
		m[opTable[op].Name] = op
	}
	return m
}()

// OpcodeByName resolves a mnemonic; ok is false for unknown names.
func OpcodeByName(name string) (Opcode, bool) {
	op, ok := opByName[name]
	return op, ok
}

// Info returns the static properties of the opcode.
func (op Opcode) Info() OpInfo {
	if op >= numOpcodes {
		return opTable[OpInvalid]
	}
	return opTable[op]
}

// String returns the mnemonic.
func (op Opcode) String() string { return op.Info().Name }

// Valid reports whether op is a known opcode.
func (op Opcode) Valid() bool { return op > OpInvalid && op < numOpcodes }

// IsMemory reports whether the opcode accesses a memory space.
func (op Opcode) IsMemory() bool {
	switch op.Info().Class {
	case ClassMemGlobal, ClassMemLocal, ClassMemShared, ClassMemConst, ClassMemGeneric:
		return true
	}
	return false
}

// IsSync reports whether the opcode is a synchronization instruction.
func (op Opcode) IsSync() bool { return op.Info().Class == ClassSync }

// IsControl reports whether the opcode transfers control.
func (op Opcode) IsControl() bool { return op.Info().Class == ClassControl }

// Modifier is an opcode suffix such as ".32" or ".WIDE". Modifiers are
// drawn from a fixed dictionary so they can be encoded as a bitmask in
// the 128-bit instruction word.
type Modifier uint8

// The modifier dictionary. At most 12 modifiers fit the encoding budget.
const (
	Mod32 Modifier = iota // 32-bit access/operand
	Mod64                 // 64-bit access/operand
	Mod128
	ModE    // extended (64-bit) address
	ModWide // widening multiply
	ModU32
	ModS32
	ModF32
	ModF64
	ModRcp  // MUFU.RCP
	ModSin  // MUFU.SIN and friends (transcendental group)
	ModSync // BAR.SYNC, warp-synchronizing variants
	numModifiers
)

var modNames = [numModifiers]string{
	Mod32: "32", Mod64: "64", Mod128: "128", ModE: "E", ModWide: "WIDE",
	ModU32: "U32", ModS32: "S32", ModF32: "F32", ModF64: "F64",
	ModRcp: "RCP", ModSin: "SIN", ModSync: "SYNC",
}

var modByName = func() map[string]Modifier {
	m := make(map[string]Modifier, numModifiers)
	for i := Modifier(0); i < numModifiers; i++ {
		m[modNames[i]] = i
	}
	return m
}()

// ModifierByName resolves a modifier name (without the leading dot).
func ModifierByName(name string) (Modifier, bool) {
	mod, ok := modByName[name]
	return mod, ok
}

// String returns the modifier name without the leading dot.
func (m Modifier) String() string {
	if m < numModifiers {
		return modNames[m]
	}
	return fmt.Sprintf("?mod%d", uint8(m))
}

// ModMask is a set of modifiers encoded as a bitmask.
type ModMask uint16

// With returns the mask with m added.
func (mm ModMask) With(m Modifier) ModMask { return mm | 1<<m }

// Has reports whether m is in the mask.
func (mm ModMask) Has(m Modifier) bool { return mm&(1<<m) != 0 }

// AccessWidth returns the access width in bits implied by the modifiers
// (default 32).
func (mm ModMask) AccessWidth() int {
	switch {
	case mm.Has(Mod128):
		return 128
	case mm.Has(Mod64) || mm.Has(ModF64):
		return 64
	default:
		return 32
	}
}
