package sass

import (
	"encoding/binary"
	"fmt"
)

// Binary instruction encoding. Every instruction packs into one 128-bit
// word, mirroring the fixed-length encoding of Volta and later
// architectures (Section 2.2). Layout (LSB first):
//
//	bits   0-7   opcode
//	bits   8-10  predicate register
//	bit    11    predicate negated
//	bits  12-15  stall cycles
//	bit   16     yield
//	bits  17-19  write barrier + 1 (0 = none)
//	bits  20-22  read barrier + 1 (0 = none)
//	bits  23-28  wait mask
//	bits  29-40  modifier mask
//	bits  41-43  operand count
//	bits  44-127 operand stream (variable-width, 84 bits)
//
// Operand stream entries: 3-bit kind tag, then
//
//	reg:    2-bit class, 8-bit index                     (13 bits)
//	imm:    32-bit value                                 (35 bits)
//	fimm:   32-bit float bits                            (35 bits)
//	mem:    8-bit base register, 18-bit signed offset    (29 bits)
//	const:  5-bit bank, 16-bit offset                    (24 bits)
//	label:  1-bit "is function": 8-bit function ordinal
//	        or 20-bit pc>>4                              (12 or 24 bits)
//
// An instruction whose operands exceed the 84-bit stream cannot be
// encoded; real assemblers avoid this by spilling wide constants to a
// constant bank, and the textual kernels in this repository respect the
// same budget.

const operandStreamBits = 84

type bitBuf struct {
	w   [2]uint64
	pos int
}

func (b *bitBuf) put(width int, v uint64) {
	if b.pos+width > 128 {
		// Overflow: advance pos so the caller's budget check fails, but
		// do not write out of bounds.
		b.pos += width
		return
	}
	for i := 0; i < width; i++ {
		if v&(1<<uint(i)) != 0 {
			b.w[(b.pos+i)/64] |= 1 << uint((b.pos+i)%64)
		}
	}
	b.pos += width
}

func (b *bitBuf) get(width int) uint64 {
	if b.pos+width > 128 {
		// Overflow: as in put, advance pos so the caller's budget check
		// fails, and read nothing out of bounds.
		b.pos += width
		return 0
	}
	var v uint64
	for i := 0; i < width; i++ {
		if b.w[(b.pos+i)/64]&(1<<uint((b.pos+i)%64)) != 0 {
			v |= 1 << uint(i)
		}
	}
	b.pos += width
	return v
}

// EncodeInstruction packs one instruction into a 16-byte word. fnOrdinal
// resolves function names referenced by CAL to module ordinals; it may be
// nil when the instruction has no symbolic target.
func EncodeInstruction(in *Instruction, fnOrdinal func(string) (int, bool)) ([InstrBytes]byte, error) {
	var out [InstrBytes]byte
	var b bitBuf
	b.put(8, uint64(in.Opcode))
	pred := in.Pred
	if pred.Reg == (Reg{}) {
		pred = Always
	}
	b.put(3, uint64(pred.Reg.Index))
	b.put(1, boolBit(pred.Negated))
	b.put(4, uint64(in.Ctrl.Stall))
	b.put(1, boolBit(in.Ctrl.Yield))
	b.put(3, uint64(in.Ctrl.WriteBar+1))
	b.put(3, uint64(in.Ctrl.ReadBar+1))
	b.put(6, uint64(in.Ctrl.WaitMask))
	b.put(12, uint64(in.Mods))
	if len(in.Ops) > 5 {
		return out, fmt.Errorf("sass: encode %s: %d operands (max 5)", in.Opcode, len(in.Ops))
	}
	b.put(3, uint64(len(in.Ops)))
	for _, o := range in.Ops {
		if err := encodeOperand(&b, o, in, fnOrdinal); err != nil {
			return out, err
		}
	}
	if b.pos > 128 {
		return out, fmt.Errorf("sass: encode %s: operand stream needs %d bits (128-bit budget)",
			in.Opcode, b.pos)
	}
	binary.LittleEndian.PutUint64(out[0:8], b.w[0])
	binary.LittleEndian.PutUint64(out[8:16], b.w[1])
	return out, nil
}

func encodeOperand(b *bitBuf, o Operand, in *Instruction, fnOrdinal func(string) (int, bool)) error {
	b.put(3, uint64(o.Kind))
	switch o.Kind {
	case KindReg:
		b.put(2, uint64(o.Reg.Class))
		b.put(8, uint64(o.Reg.Index))
	case KindImm, KindFImm:
		b.put(32, uint64(uint32(o.Imm)))
	case KindMem:
		if o.Imm < -(1<<17) || o.Imm >= 1<<17 {
			return fmt.Errorf("sass: encode %s: memory offset %d exceeds 18-bit field", in.Opcode, o.Imm)
		}
		b.put(8, uint64(o.Reg.Index))
		b.put(18, uint64(uint32(o.Imm))&(1<<18-1))
	case KindConst:
		b.put(5, uint64(o.Bank))
		b.put(16, uint64(o.Off))
	case KindLabel:
		if o.Sym != "" && fnOrdinal != nil {
			if ord, ok := fnOrdinal(o.Sym); ok {
				b.put(1, 1)
				b.put(8, uint64(ord))
				return nil
			}
		}
		b.put(1, 0)
		b.put(20, uint64(o.PC/InstrBytes))
	default:
		return fmt.Errorf("sass: encode: bad operand kind %d", o.Kind)
	}
	return nil
}

// DecodeInstruction unpacks a 16-byte word. fnName resolves function
// ordinals back to names for symbolic call targets.
func DecodeInstruction(word [InstrBytes]byte, pc uint32, fnName func(int) (string, bool)) (Instruction, error) {
	var b bitBuf
	b.w[0] = binary.LittleEndian.Uint64(word[0:8])
	b.w[1] = binary.LittleEndian.Uint64(word[8:16])
	in := Instruction{PC: pc}
	in.Opcode = Opcode(b.get(8))
	if !in.Opcode.Valid() {
		return in, fmt.Errorf("sass: decode at 0x%x: invalid opcode %d", pc, in.Opcode)
	}
	in.Pred = Predicate{Reg: P(int(b.get(3))), Negated: b.get(1) == 1}
	in.Ctrl.Stall = uint8(b.get(4))
	in.Ctrl.Yield = b.get(1) == 1
	in.Ctrl.WriteBar = int8(b.get(3)) - 1
	in.Ctrl.ReadBar = int8(b.get(3)) - 1
	in.Ctrl.WaitMask = uint8(b.get(6))
	in.Mods = ModMask(b.get(12))
	n := int(b.get(3))
	if n > 5 {
		return in, fmt.Errorf("sass: decode at 0x%x: %d operands (max 5)", pc, n)
	}
	for i := 0; i < n; i++ {
		o, err := decodeOperand(&b, fnName)
		if err != nil {
			return in, fmt.Errorf("sass: decode at 0x%x: %w", pc, err)
		}
		in.Ops = append(in.Ops, o)
	}
	if b.pos > 128 {
		return in, fmt.Errorf("sass: decode at 0x%x: operand stream overruns the 128-bit word", pc)
	}
	return in, nil
}

func decodeOperand(b *bitBuf, fnName func(int) (string, bool)) (Operand, error) {
	kind := OperandKind(b.get(3))
	switch kind {
	case KindReg:
		return RegOp(Reg{RegClass(b.get(2)), uint8(b.get(8))}), nil
	case KindImm:
		return ImmOp(int32(uint32(b.get(32)))), nil
	case KindFImm:
		return Operand{Kind: KindFImm, Imm: int32(uint32(b.get(32)))}, nil
	case KindMem:
		base := uint8(b.get(8))
		raw := uint32(b.get(18))
		// Sign-extend the 18-bit offset.
		if raw&(1<<17) != 0 {
			raw |= ^uint32(1<<18 - 1)
		}
		return MemOp(Reg{RegGPR, base}, int32(raw)), nil
	case KindConst:
		bank := uint8(b.get(5))
		off := uint16(b.get(16))
		return ConstOp(bank, off), nil
	case KindLabel:
		if b.get(1) == 1 {
			ord := int(b.get(8))
			name := ""
			if fnName != nil {
				if n, ok := fnName(ord); ok {
					name = n
				}
			}
			if name == "" {
				return Operand{}, fmt.Errorf("unresolvable function ordinal %d", ord)
			}
			return LabelOp(name), nil
		}
		return Operand{Kind: KindLabel, PC: uint32(b.get(20)) * InstrBytes}, nil
	}
	return Operand{}, fmt.Errorf("bad operand kind %d", kind)
}

// EncodeFunction encodes all instructions of a function against the
// module's function table.
func EncodeFunction(m *Module, f *Function) ([]byte, error) {
	ordinal := func(name string) (int, bool) {
		for i, fn := range m.Functions {
			if fn.Name == name {
				return i, true
			}
		}
		return 0, false
	}
	out := make([]byte, 0, len(f.Instrs)*InstrBytes)
	for i := range f.Instrs {
		w, err := EncodeInstruction(&f.Instrs[i], ordinal)
		if err != nil {
			return nil, fmt.Errorf("%s+0x%x: %w", f.Name, f.Instrs[i].PC, err)
		}
		out = append(out, w[:]...)
	}
	return out, nil
}

// DecodeFunction decodes an instruction stream encoded by EncodeFunction.
func DecodeFunction(code []byte, fnName func(int) (string, bool)) ([]Instruction, error) {
	if len(code)%InstrBytes != 0 {
		return nil, fmt.Errorf("sass: code size %d not a multiple of %d", len(code), InstrBytes)
	}
	instrs := make([]Instruction, 0, len(code)/InstrBytes)
	for off := 0; off < len(code); off += InstrBytes {
		var w [InstrBytes]byte
		copy(w[:], code[off:off+InstrBytes])
		in, err := DecodeInstruction(w, uint32(off), fnName)
		if err != nil {
			return nil, err
		}
		instrs = append(instrs, in)
	}
	return instrs, nil
}

func boolBit(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}
