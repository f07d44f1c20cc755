package sass

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := mustVecadd(t)
	f := m.Function("vecadd")
	code, err := EncodeFunction(m, f)
	if err != nil {
		t.Fatalf("EncodeFunction: %v", err)
	}
	if len(code) != len(f.Instrs)*InstrBytes {
		t.Fatalf("code size = %d, want %d", len(code), len(f.Instrs)*InstrBytes)
	}
	decoded, err := DecodeFunction(code, nil)
	if err != nil {
		t.Fatalf("DecodeFunction: %v", err)
	}
	for i := range f.Instrs {
		want := normalizeForCodec(f.Instrs[i])
		got := decoded[i]
		if !reflect.DeepEqual(got, want) {
			t.Errorf("instr %d: decoded %v, want %v", i, got.String(), want.String())
		}
	}
}

func TestEncodeDecodeCallTarget(t *testing.T) {
	src := `
.func helper device
	IADD R0, R0, 0x1 {S:4}
	RET
.func main global
	CAL helper {S:2}
	EXIT
`
	m, err := Assemble(src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	f := m.Function("main")
	code, err := EncodeFunction(m, f)
	if err != nil {
		t.Fatalf("EncodeFunction: %v", err)
	}
	names := func(i int) (string, bool) {
		if i < len(m.Functions) {
			return m.Functions[i].Name, true
		}
		return "", false
	}
	decoded, err := DecodeFunction(code, names)
	if err != nil {
		t.Fatalf("DecodeFunction: %v", err)
	}
	tgt, ok := decoded[0].BranchTarget()
	if !ok || tgt.Sym != "helper" {
		t.Errorf("decoded CAL target = %+v, want helper", tgt)
	}
}

func TestEncodeRejectsOversizedStream(t *testing.T) {
	// Five 32-bit immediates cannot fit the 84-bit operand stream.
	in := &Instruction{
		Opcode: OpIADD3,
		Pred:   Always,
		Ctrl:   DefaultControl(),
		Ops: []Operand{
			ImmOp(0x7fffffff), ImmOp(0x7fffffff), ImmOp(0x7fffffff),
			ImmOp(0x7fffffff), ImmOp(0x7fffffff),
		},
	}
	if _, err := EncodeInstruction(in, nil); err == nil {
		t.Fatal("EncodeInstruction accepted an oversized operand stream")
	}
}

func TestEncodeRejectsHugeMemOffset(t *testing.T) {
	in := &Instruction{
		Opcode: OpLDG,
		Pred:   Always,
		Ctrl:   DefaultControl(),
		Ops:    []Operand{RegOp(R(0)), MemOp(R(2), 1<<20)},
	}
	if _, err := EncodeInstruction(in, nil); err == nil {
		t.Fatal("EncodeInstruction accepted an 18-bit-overflowing offset")
	}
}

func TestDecodeRejectsBadOpcode(t *testing.T) {
	var w [InstrBytes]byte
	w[0] = 0xff // opcode 255 does not exist
	if _, err := DecodeInstruction(w, 0, nil); err == nil {
		t.Fatal("DecodeInstruction accepted an invalid opcode")
	}
}

// TestDecodeRejectsOverrun: a word whose operand count or operand kinds
// call for more than an instruction encodes is an error, never a read
// past the word.
func TestDecodeRejectsOverrun(t *testing.T) {
	word := func(n int, kind OperandKind, width int) [InstrBytes]byte {
		var b bitBuf
		b.put(8, uint64(OpIADD3))
		b.put(3+1+4+1+3+3+6+12, 0)
		b.put(3, uint64(n))
		for b.pos+3+width <= 128 {
			b.put(3, uint64(kind))
			b.put(width, 0)
		}
		var w [InstrBytes]byte
		binary.LittleEndian.PutUint64(w[0:8], b.w[0])
		binary.LittleEndian.PutUint64(w[8:16], b.w[1])
		return w
	}
	// Five 35-bit immediates: the third runs past the word.
	if _, err := DecodeInstruction(word(5, KindImm, 32), 0, nil); err == nil {
		t.Error("DecodeInstruction accepted an operand stream past the word")
	}
	// Six 13-bit registers fit the word, but no instruction encodes six.
	if _, err := DecodeInstruction(word(6, KindReg, 10), 0, nil); err == nil {
		t.Error("DecodeInstruction accepted more operands than an instruction encodes")
	}
}

func TestDecodeRejectsBadSize(t *testing.T) {
	if _, err := DecodeFunction(make([]byte, 17), nil); err == nil {
		t.Fatal("DecodeFunction accepted a misaligned buffer")
	}
}

// randomInstruction generates an encodable instruction for property
// testing.
func randomInstruction(r *rand.Rand) Instruction {
	ops := []Opcode{OpLDG, OpSTG, OpLDS, OpLDC, OpIADD, OpIMAD, OpFFMA,
		OpFADD, OpMUFU, OpF2F, OpMOV, OpISETP, OpBRA, OpEXIT, OpBAR, OpNOP}
	op := ops[r.Intn(len(ops))]
	in := Instruction{
		Opcode: op,
		Pred:   Always,
		Ctrl: Control{
			Stall:    uint8(r.Intn(16)),
			Yield:    r.Intn(2) == 1,
			WriteBar: int8(r.Intn(NumBarriers+1)) - 1,
			ReadBar:  int8(r.Intn(NumBarriers+1)) - 1,
			WaitMask: uint8(r.Intn(1 << NumBarriers)),
		},
	}
	if r.Intn(3) == 0 {
		in.Pred = Predicate{Reg: P(r.Intn(7)), Negated: r.Intn(2) == 1}
	}
	if r.Intn(2) == 0 {
		in.Mods = in.Mods.With(Modifier(r.Intn(int(numModifiers))))
	}
	info := op.Info()
	switch {
	case info.Load:
		in.Ops = []Operand{RegOp(R(r.Intn(32))), MemOp(R(r.Intn(32)), int32(r.Intn(1<<12)))}
	case info.Store:
		in.Ops = []Operand{MemOp(R(r.Intn(32)), int32(r.Intn(1<<12))), RegOp(R(r.Intn(32)))}
	case info.Branch:
		in.Ops = []Operand{{Kind: KindLabel, PC: uint32(r.Intn(1<<10)) * InstrBytes}}
	case op == OpBAR || op == OpEXIT || op == OpNOP:
		// no operands
	default:
		n := 2 + r.Intn(2)
		in.Ops = append(in.Ops, RegOp(R(r.Intn(32))))
		for i := 0; i < n; i++ {
			switch r.Intn(3) {
			case 0:
				in.Ops = append(in.Ops, RegOp(R(r.Intn(32))))
			case 1:
				in.Ops = append(in.Ops, ImmOp(int32(r.Uint32())))
			default:
				in.Ops = append(in.Ops, ConstOp(uint8(r.Intn(8)), uint16(r.Intn(1<<12))))
			}
		}
	}
	return in
}

// normalizeForCodec maps an instruction to the form the codec preserves:
// label symbols inside a function body decode as raw PCs, and the always
// predicate decodes canonically as @PT.
func normalizeForCodec(in Instruction) Instruction {
	out := in
	out.Ops = append([]Operand(nil), in.Ops...)
	for i, o := range out.Ops {
		if o.Kind == KindLabel && o.Sym != "" && in.Opcode != OpCAL {
			o.Sym = ""
			out.Ops[i] = o
		}
	}
	if out.Pred.IsAlways() {
		out.Pred = Always
	}
	if len(out.Ops) == 0 {
		out.Ops = nil
	}
	return out
}

func TestEncodeDecodeProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	count := 0
	f := func() bool {
		in := randomInstruction(r)
		word, err := EncodeInstruction(&in, nil)
		if err != nil {
			// Oversized random combination: skip, but ensure the error
			// path is deliberate (3+ wide immediates).
			return true
		}
		got, err := DecodeInstruction(word, in.PC, nil)
		if err != nil {
			t.Logf("decode failed for %v: %v", in.String(), err)
			return false
		}
		count++
		want := normalizeForCodec(in)
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	if count < 1000 {
		t.Errorf("only %d/2000 random instructions were encodable; generator too aggressive", count)
	}
}

func TestModMaskAccessWidth(t *testing.T) {
	cases := []struct {
		mods ModMask
		want int
	}{
		{0, 32},
		{ModMask(0).With(Mod32), 32},
		{ModMask(0).With(Mod64), 64},
		{ModMask(0).With(ModF64), 64},
		{ModMask(0).With(Mod128), 128},
		{ModMask(0).With(ModE).With(Mod32), 32},
	}
	for _, tc := range cases {
		if got := tc.mods.AccessWidth(); got != tc.want {
			t.Errorf("AccessWidth(%v) = %d, want %d", tc.mods, got, tc.want)
		}
	}
}

func TestOperandString(t *testing.T) {
	cases := []struct {
		op   Operand
		want string
	}{
		{RegOp(R(4)), "R4"},
		{RegOp(RZ), "RZ"},
		{RegOp(PT), "PT"},
		{ImmOp(16), "0x10"},
		{ImmOp(-4), "-0x4"},
		{FImmOp(2.0), "2f"},
		{MemOp(R(2), 0), "[R2]"},
		{MemOp(R(2), 16), "[R2+0x10]"},
		{MemOp(R(2), -16), "[R2-0x10]"},
		{ConstOp(0, 0x160), "c[0x0][0x160]"},
		{LabelOp("L0"), "L0"},
	}
	for _, tc := range cases {
		if got := tc.op.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}
