package sass

import (
	"strings"
	"testing"
	"unsafe"
)

const vecaddSrc = `
.module sm_70
.func vecadd global
.line vecadd.cu 3
	S2R R0, SR_CTAID.X {S:2, W:0}
	S2R R1, SR_TID.X {S:2, W:1}
.line vecadd.cu 4
	IMAD R0, R0, c[0x0][0x0], R1 {S:4, Q:0|1}
	SHL R2, R0, 0x2 {S:4}
	IADD R2, R2, c[0x0][0x160] {S:2}
.line vecadd.cu 5
	@P0 LDG.E.32 R4, [R2] {S:1, W:2}
	LDG.E.32 R5, [R2+0x400] {S:1, W:3}
	FADD R6, R4, R5 {S:4, Q:2|3}
	STG.E.32 [R2+0x800], R6 {S:1, R:4}
	EXIT {Q:4}
`

func mustVecadd(t *testing.T) *Module {
	t.Helper()
	m, err := Assemble(vecaddSrc)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return m
}

func TestAssembleBasic(t *testing.T) {
	m := mustVecadd(t)
	if m.Arch != 70 {
		t.Errorf("Arch = %d, want 70", m.Arch)
	}
	f := m.Function("vecadd")
	if f == nil {
		t.Fatal("function vecadd not found")
	}
	if f.Visibility != VisGlobal {
		t.Errorf("visibility = %v, want global", f.Visibility)
	}
	if len(f.Instrs) != 10 {
		t.Fatalf("got %d instructions, want 10", len(f.Instrs))
	}
	for i, in := range f.Instrs {
		if in.PC != uint32(i*InstrBytes) {
			t.Errorf("instr %d: PC = 0x%x, want 0x%x", i, in.PC, i*InstrBytes)
		}
	}
	if f.Lines[0].File != "vecadd.cu" || f.Lines[0].Line != 3 {
		t.Errorf("line[0] = %+v, want vecadd.cu:3", f.Lines[0])
	}
	if f.Lines[5].Line != 5 {
		t.Errorf("line[5] = %+v, want line 5", f.Lines[5])
	}
}

func TestAssembleInstructionFields(t *testing.T) {
	m := mustVecadd(t)
	f := m.Function("vecadd")

	ldg := f.Instrs[5]
	if ldg.Opcode != OpLDG {
		t.Fatalf("instr 5 opcode = %v, want LDG", ldg.Opcode)
	}
	if ldg.Pred != (Predicate{Reg: P(0)}) {
		t.Errorf("LDG pred = %v, want @P0", ldg.Pred)
	}
	if !ldg.Mods.Has(ModE) || !ldg.Mods.Has(Mod32) {
		t.Errorf("LDG mods = %v, want E and 32", ldg.Mods)
	}
	if ldg.Ctrl.WriteBar != 2 || ldg.Ctrl.Stall != 1 {
		t.Errorf("LDG ctrl = %+v, want W:2 S:1", ldg.Ctrl)
	}
	if len(ldg.Ops) != 2 || ldg.Ops[0] != RegOp(R(4)) {
		t.Errorf("LDG ops = %v", ldg.Ops)
	}
	if ldg.Ops[1].Kind != KindMem || ldg.Ops[1].Reg != R(2) || ldg.Ops[1].Imm != 0 {
		t.Errorf("LDG mem operand = %v", ldg.Ops[1])
	}

	fadd := f.Instrs[7]
	if fadd.Ctrl.WaitMask != 0b1100 {
		t.Errorf("FADD wait mask = %b, want 1100", fadd.Ctrl.WaitMask)
	}

	stg := f.Instrs[8]
	if stg.Ctrl.ReadBar != 4 {
		t.Errorf("STG read barrier = %d, want 4", stg.Ctrl.ReadBar)
	}
}

func TestDefUse(t *testing.T) {
	m := mustVecadd(t)
	f := m.Function("vecadd")

	// @P0 LDG.E.32 R4, [R2] {W:2}: defs R4 and B2; uses R2, R3 (64-bit
	// address pair), P0.
	ldg := &f.Instrs[5]
	defs := ldg.Defs()
	wantDefs := []Reg{R(4), B(2)}
	if !regSetEq(defs, wantDefs) {
		t.Errorf("LDG defs = %v, want %v", defs, wantDefs)
	}
	uses := ldg.Uses()
	wantUses := []Reg{R(2), R(3), P(0)}
	if !regSetEq(uses, wantUses) {
		t.Errorf("LDG uses = %v, want %v", uses, wantUses)
	}

	// FADD R6, R4, R5 {Q:2|3}: defs R6; uses R4, R5, B2, B3.
	fadd := &f.Instrs[7]
	if !regSetEq(fadd.Defs(), []Reg{R(6)}) {
		t.Errorf("FADD defs = %v", fadd.Defs())
	}
	if !regSetEq(fadd.Uses(), []Reg{R(4), R(5), B(2), B(3)}) {
		t.Errorf("FADD uses = %v", fadd.Uses())
	}

	// STG.E.32 [R2+0x800], R6 {R:4}: defs B4 (read barrier).
	stg := &f.Instrs[8]
	if !regSetEq(stg.Defs(), []Reg{B(4)}) {
		t.Errorf("STG defs = %v", stg.Defs())
	}
}

func TestAssembleLabelsAndBranches(t *testing.T) {
	src := `
.func loopy global
.line k.cu 1
	MOV R0, 0x0 {S:2}
L0:
	IADD R0, R0, 0x1 {S:4}
	ISETP P0, R0, 0x10 {S:4}
	@P0 BRA L0 {S:5}
	EXIT
`
	m, err := Assemble(src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	f := m.Function("loopy")
	if got := f.Labels["L0"]; got != 1 {
		t.Errorf("label L0 at %d, want 1", got)
	}
	bra := f.Instrs[3]
	tgt, ok := bra.BranchTarget()
	if !ok {
		t.Fatal("BRA has no target")
	}
	if tgt.PC != InstrBytes {
		t.Errorf("BRA target PC = 0x%x, want 0x%x", tgt.PC, InstrBytes)
	}
}

func TestAssembleCallTargets(t *testing.T) {
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
	main := m.Function("main")
	tgt, ok := main.Instrs[0].BranchTarget()
	if !ok || tgt.Sym != "helper" {
		t.Fatalf("CAL target = %+v", tgt)
	}
	if m.Function("helper").Visibility != VisDevice {
		t.Error("helper should be a device function")
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"no function", "IADD R0, R0, 0x1", "outside .func"},
		{"bad opcode", ".func f global\n\tFROB R0\n\tEXIT", "unknown opcode"},
		{"bad register", ".func f global\n\tMOV R999, 0x0\n\tEXIT", "out of range"},
		{"undefined label", ".func f global\n\tBRA NOWHERE\n\tEXIT", "undefined label"},
		{"dup label", ".func f global\nL0:\nL0:\n\tEXIT", "duplicate label"},
		{"bad barrier", ".func f global\n\tLDG.E R0, [R2] {W:9}\n\tEXIT", "bad write barrier"},
		{"unknown call", ".func f global\n\tCAL nothere\n\tEXIT", "unknown function"},
		{"no exit", ".func f global\n\tIADD R0, R0, 0x1 {S:4}", "does not end in"},
		{"bad ctrl", ".func f global\n\tNOP {Z:1}\n\tEXIT", "unknown control field"},
		{"empty module", "", "no functions"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Assemble(tc.src)
			if err == nil {
				t.Fatal("Assemble succeeded, want error")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

func TestInstructionString(t *testing.T) {
	m := mustVecadd(t)
	f := m.Function("vecadd")
	got := f.Instrs[5].String()
	want := "@P0 LDG.32.E R4, [R2] {W:2}"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	// Reparse the rendered instruction: it should assemble to itself.
	src := ".func f global\n\t" + got + "\n\tEXIT\n"
	m2, err := Assemble(src)
	if err != nil {
		t.Fatalf("reassemble %q: %v", got, err)
	}
	in := m2.Function("f").Instrs[0]
	if in.Opcode != OpLDG || in.Ctrl.WriteBar != 2 || in.Ops[1].Reg != R(2) {
		t.Errorf("reassembled instruction differs: %v", in.String())
	}
}

func TestPredicateSet(t *testing.T) {
	var s PredicateSet
	p0 := Predicate{Reg: P(0)}
	np0 := Predicate{Reg: P(0), Negated: true}
	p1 := Predicate{Reg: P(1)}

	if s.Contains(p0) {
		t.Error("empty set should not contain @P0")
	}
	s.Add(p0)
	if !s.Contains(p0) {
		t.Error("set should contain @P0 after Add")
	}
	if s.Contains(np0) {
		t.Error("set should not contain @!P0")
	}
	if s.Contains(Always) {
		t.Error("one polarity should not cover the always predicate")
	}
	s.Add(np0)
	if !s.Contains(Always) {
		t.Error("both polarities should cover the always predicate")
	}
	if !s.Contains(p1) {
		t.Error("P0 union !P0 = _ covers any predicate")
	}

	var s2 PredicateSet
	s2.Add(Always)
	if !s2.Contains(p0) || !s2.Contains(np0) || !s2.Contains(Always) {
		t.Error("the always predicate covers everything")
	}
}

func regSetEq(a, b []Reg) bool {
	if len(a) != len(b) {
		return false
	}
	seen := map[Reg]int{}
	for _, r := range a {
		seen[r]++
	}
	for _, r := range b {
		seen[r]--
		if seen[r] < 0 {
			return false
		}
	}
	return true
}

// TestAssembleKeepsNoSourceText: no string a module keeps — a function,
// label, file, inline frame or symbol name — points into the source
// text, so a cached module does not keep its source alive.
func TestAssembleKeepsNoSourceText(t *testing.T) {
	src := strings.Clone(`
.func helper device
	RET
.func k global
.line k.cu 3
.inline lib.cu 7 helper
	MOV R0, 0x0 {S:2}
.inlineend
L0:	CAL helper
	BRA L0
	EXIT
`)
	m, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	check := func(what, s string) {
		if p := uintptr(unsafe.Pointer(unsafe.StringData(s))); s != "" && p >= lo && p < lo+uintptr(len(src)) {
			t.Errorf("%s %q points into the source text", what, s)
		}
	}
	for _, f := range m.Functions {
		check("function", f.Name)
		for l := range f.Labels {
			check("label", l)
		}
		for _, li := range f.Lines {
			check("file", li.File)
			for _, fr := range li.Inline {
				check("inline file", fr.File)
				check("inline function", fr.Function)
			}
		}
		for _, in := range f.Instrs {
			for _, o := range in.Ops {
				check("symbol", o.Sym)
			}
		}
	}
}
