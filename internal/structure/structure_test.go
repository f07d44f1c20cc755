package structure

import (
	"strings"
	"testing"

	"gpa/internal/sass"
)

const moduleSrc = `
.module sm_70
.func __internal_accurate_pow device
.line mathlib.cu 900
	MUFU.RCP R8, R8 {S:1, W:5}
	RET {Q:5}
.func mainkern global
.line app.cu 10
	MOV R0, 0x0 {S:2}
OUTER:
.line app.cu 12
	MOV R1, 0x0 {S:2}
INNER:
.line app.cu 14
	FFMA R2, R2, R3, R2 {S:2}
.inline app.cu 15 helper
.line helper.cu 3
	FMUL R4, R4, R5 {S:4}
.inlineend
.line app.cu 16
	IADD R1, R1, 0x1 {S:4}
	ISETP P0, R1, 0x8 {S:4}
	@P0 BRA INNER {S:5}
.line app.cu 18
	CAL __internal_accurate_pow {S:2}
	IADD R0, R0, 0x1 {S:4}
	ISETP P1, R0, 0x4 {S:4}
	@P1 BRA OUTER {S:5}
	EXIT
`

func analyze(t *testing.T) *Structure {
	t.Helper()
	mod, err := sass.Assemble(moduleSrc)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Analyze(mod)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestAnalyzeBuildsAllFunctions(t *testing.T) {
	st := analyze(t)
	if st.Func("mainkern") == nil || st.Func("__internal_accurate_pow") == nil {
		t.Fatal("missing function structures")
	}
	if st.Func("nothere") != nil {
		t.Error("unknown function should be nil")
	}
	if st.Func("mainkern").Fn.Visibility != sass.VisGlobal ||
		st.Func("__internal_accurate_pow").Fn.Visibility != sass.VisDevice {
		t.Error("mainkern must be global and __internal_accurate_pow device")
	}
	fs := st.Func("mainkern")
	if got := len(fs.CFG.Loops()); got != 2 {
		t.Errorf("mainkern loops = %d, want 2", got)
	}
}

func TestIsMathFunctionName(t *testing.T) {
	cases := map[string]bool{
		"__internal_accurate_pow": true,
		"__cuda_sin":              true,
		"__nv_exp":                true,
		"rsqrtf":                  true,
		"mainkern":                false,
		"tensor_transpose":        false,
		"findRangeK":              false,
	}
	for name, want := range cases {
		if got := IsMathFunctionName(name); got != want {
			t.Errorf("IsMathFunctionName(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestInMathFunction(t *testing.T) {
	st := analyze(t)
	math := st.Func("__internal_accurate_pow")
	if !math.InMathFunction(0) {
		t.Error("instructions of a math routine must report true")
	}
	main := st.Func("mainkern")
	if main.InMathFunction(0) {
		t.Error("plain kernel instruction misreported as math")
	}
	// Out of range is false, not a panic.
	if main.InMathFunction(-1) || main.InMathFunction(999) {
		t.Error("out-of-range index must be false")
	}
}

func TestInMathFunctionViaInlineStack(t *testing.T) {
	src := `
.func k global
.line a.cu 1
	MOV R0, 0x0 {S:2}
.inline a.cu 2 __internal_accurate_exp
.line mathlib.cu 40
	MUFU.RCP R1, R1 {S:1, W:0}
.inlineend
.line a.cu 3
	EXIT {Q:0}
`
	mod := sass.MustAssemble(src)
	st, err := Analyze(mod)
	if err != nil {
		t.Fatal(err)
	}
	fs := st.Func("k")
	if fs.InMathFunction(0) {
		t.Error("instruction before the inline frame misreported")
	}
	if !fs.InMathFunction(1) {
		t.Error("inlined math body must report true")
	}
	if fs.InMathFunction(2) {
		t.Error("instruction after .inlineend misreported")
	}
}

func TestLocationRendering(t *testing.T) {
	st := analyze(t)
	fs := st.Func("mainkern")
	// Instruction 2 (FFMA) is inside both loops; location should name
	// the inner loop head line (12).
	loc := fs.Location(2)
	if !strings.Contains(loc, "at Line 14") {
		t.Errorf("Location(2) = %q, want line 14", loc)
	}
	if !strings.Contains(loc, "in Loop at Line") {
		t.Errorf("Location(2) = %q, want loop context", loc)
	}
	// Instruction 0 is outside any loop.
	loc0 := fs.Location(0)
	if strings.Contains(loc0, "in Loop") {
		t.Errorf("Location(0) = %q, should not be in a loop", loc0)
	}
	if fs.Location(-5) != "<unknown>" {
		t.Error("out-of-range Location should be <unknown>")
	}
}

func TestSourceContext(t *testing.T) {
	st := analyze(t)
	fs := st.Func("mainkern")
	if got := fs.SourceContext(0); got != "mainkern at app.cu:10" {
		t.Errorf("SourceContext(0) = %q", got)
	}
	// The inlined FMUL reports the inlined function's name with its own
	// source position.
	got := fs.SourceContext(3)
	if !strings.Contains(got, "helper") || !strings.Contains(got, "helper.cu:3") {
		t.Errorf("SourceContext(3) = %q, want helper at helper.cu:3", got)
	}
	if got := fs.SourceContext(-1); got != "mainkern" {
		t.Errorf("out-of-range SourceContext = %q", got)
	}
}

func TestAnalyzeRejectsBadModule(t *testing.T) {
	mod := &sass.Module{Arch: 70, Functions: []*sass.Function{{
		Name: "broken", Labels: map[string]int{},
	}}}
	if _, err := Analyze(mod); err == nil {
		t.Error("empty function must fail CFG construction")
	}
}
