// Package structure recovers GPA's program-structure file from a module
// (Section 3's static analyzer, the offline half of Figure 2): function
// symbols annotated with visibility, loop nests (via control flow
// analysis), inline stacks, and source line mappings. Input is a
// *sass.Module; output a *Structure of per-function FuncStructure
// values joining the CFG with line information. Optimizers use it to
// scope stalls to lines, loops, and functions (Equation 5's loop
// scopes), and the report renderer uses it to print hotspot locations
// the way Figure 8 of the paper does ("0x1620 at Line 34 in Loop at
// Line 30").
package structure

import (
	"fmt"
	"strings"

	"gpa/internal/cfg"
	"gpa/internal/sass"
)

// FuncStructure bundles one function's structural facts.
type FuncStructure struct {
	Fn  *sass.Function
	CFG *cfg.Graph
}

// Structure is the whole-module program structure.
type Structure struct {
	Module *sass.Module
	Funcs  map[string]*FuncStructure
}

// Analyze builds control flow graphs and loop nests for every function.
func Analyze(mod *sass.Module) (*Structure, error) {
	s := &Structure{Module: mod, Funcs: map[string]*FuncStructure{}}
	for _, fn := range mod.Functions {
		g, err := cfg.Build(fn)
		if err != nil {
			return nil, fmt.Errorf("structure: %w", err)
		}
		s.Funcs[fn.Name] = &FuncStructure{Fn: fn, CFG: g}
	}
	return s, nil
}

// Func returns the structure of a named function, or nil.
func (s *Structure) Func(name string) *FuncStructure { return s.Funcs[name] }

// mathNameFragments identify CUDA math-library functions (the targets of
// the Fast Math optimizer) by symbol or inline-frame name.
var mathNameFragments = []string{
	"__cuda_", "__internal_", "__nv_", "sqrt", "rsqrt", "exp", "log",
	"pow", "sin", "cos", "tan", "erf", "cbrt", "hypot", "fdim",
}

// IsMathFunctionName reports whether a function name looks like a CUDA
// math-library routine.
func IsMathFunctionName(name string) bool {
	lower := strings.ToLower(name)
	for _, frag := range mathNameFragments {
		if strings.Contains(lower, frag) {
			return true
		}
	}
	return false
}

// InMathFunction reports whether instruction i of fn executes math
// library code: either the containing function is a math routine or the
// instruction's inline stack passes through one.
func (f *FuncStructure) InMathFunction(i int) bool {
	if IsMathFunctionName(f.Fn.Name) {
		return true
	}
	if i < 0 || i >= len(f.Fn.Lines) {
		return false
	}
	for _, fr := range f.Fn.Lines[i].Inline {
		if IsMathFunctionName(fr.Function) {
			return true
		}
	}
	return false
}

// Location renders the Figure 8 location string for instruction i:
// "0xPC at Line N [in Loop at Line M]".
func (f *FuncStructure) Location(i int) string {
	if i < 0 || i >= len(f.Fn.Instrs) {
		return "<unknown>"
	}
	pc := f.Fn.Instrs[i].PC
	li := f.Fn.Lines[i]
	s := fmt.Sprintf("0x%x at Line %d", pc, li.Line)
	if l := f.CFG.InnermostLoop(i); l != nil {
		s += fmt.Sprintf(" in Loop at Line %d", l.HeadLine.Line)
	}
	return s
}

// SourceContext renders "FUNC at FILE:LINE" with the outermost inline
// caller when present.
func (f *FuncStructure) SourceContext(i int) string {
	if i < 0 || i >= len(f.Fn.Lines) {
		return f.Fn.Name
	}
	li := f.Fn.Lines[i]
	name := f.Fn.Name
	file, line := li.File, li.Line
	if len(li.Inline) > 0 {
		// Present as the inlined function within its caller's frame.
		innermost := li.Inline[len(li.Inline)-1]
		name = innermost.Function
	}
	if file == "" {
		return name
	}
	return fmt.Sprintf("%s at %s:%d", name, file, line)
}
