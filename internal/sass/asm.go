package sass

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Assemble parses a textual module. The grammar is line oriented:
//
//	.module sm_70                  architecture flag (optional, default 70)
//	.func NAME global|device       begin a function
//	.line FILE LINE                set source position for following instrs
//	.inline FILE LINE FUNC         push an inline frame (FUNC inlined at FILE:LINE)
//	.inlineend                     pop the innermost inline frame
//	LABEL:                         define a code label
//	[@[!]Pn] OP[.MOD]* [op, ...] [{ctrl}]
//
// Operands: Rn, RZ, Pn, PT, integer immediates (0x.. or decimal, with a
// trailing f for float32), memory [Rn], [Rn+0x10], [Rn-0x10], constants
// c[0xB][0xOFF], special registers SR_*, and label/function names for
// branch and call targets.
//
// Control codes in braces: S:n (stall cycles), Y (yield), W:n (write
// barrier), R:n (read barrier), Q:a|b|c (wait mask). Unspecified parts
// default to {S:1}.
//
// Comments run from "//" or "#" to end of line.
//
// It copies every name it keeps, so a module kept for long — a server's
// kernel cache holds many — does not pin the text it was assembled from.
func Assemble(src string) (*Module, error) {
	a := &assembler{mod: &Module{Arch: 70}}
	for i, raw := range strings.Split(src, "\n") {
		if err := a.line(raw); err != nil {
			return nil, fmt.Errorf("sass: line %d: %w", i+1, err)
		}
	}
	if err := a.finishFunc(); err != nil {
		return nil, err
	}
	if err := a.mod.Validate(); err != nil {
		return nil, err
	}
	return a.mod, nil
}

// MustAssemble is Assemble that panics on error; intended for statically
// known kernel sources (the workload library).
func MustAssemble(src string) *Module {
	m, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return m
}

type assembler struct {
	mod    *Module
	fn     *Function
	file   string
	lineNo int
	inline []InlineFrame
	// fixups are label operands to resolve once the function is complete:
	// instruction index -> operand index.
	fixups []fixup
}

type fixup struct {
	instr, op int
}

func (a *assembler) line(raw string) error {
	s := raw
	if i := strings.Index(s, "//"); i >= 0 {
		s = s[:i]
	}
	if i := strings.Index(s, "#"); i >= 0 {
		s = s[:i]
	}
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	if strings.HasPrefix(s, ".") {
		return a.directive(s)
	}
	// Labels may share a line with an instruction: "L0: IADD ...".
	for {
		i := strings.Index(s, ":")
		if i < 0 || !isIdent(s[:i]) {
			break
		}
		if a.fn == nil {
			return fmt.Errorf("label %q outside function", s[:i])
		}
		name := strings.Clone(s[:i])
		if _, dup := a.fn.Labels[name]; dup {
			return fmt.Errorf("duplicate label %q", name)
		}
		a.fn.Labels[name] = len(a.fn.Instrs)
		s = strings.TrimSpace(s[i+1:])
		if s == "" {
			return nil
		}
	}
	return a.instruction(s)
}

func (a *assembler) directive(s string) error {
	fields := strings.Fields(s)
	switch fields[0] {
	case ".module":
		if len(fields) != 2 || !strings.HasPrefix(fields[1], "sm_") {
			return fmt.Errorf(".module wants sm_NN")
		}
		n, err := strconv.Atoi(strings.TrimPrefix(fields[1], "sm_"))
		if err != nil {
			return fmt.Errorf(".module: %v", err)
		}
		a.mod.Arch = n
		return nil
	case ".func":
		if len(fields) != 3 {
			return fmt.Errorf(".func wants NAME global|device")
		}
		if err := a.finishFunc(); err != nil {
			return err
		}
		vis := VisGlobal
		switch fields[2] {
		case "global":
		case "device":
			vis = VisDevice
		default:
			return fmt.Errorf("unknown visibility %q", fields[2])
		}
		a.fn = &Function{Name: strings.Clone(fields[1]), Visibility: vis, Labels: map[string]int{}}
		a.file, a.lineNo, a.inline = "", 0, nil
		return nil
	case ".line":
		if len(fields) != 3 {
			return fmt.Errorf(".line wants FILE LINE")
		}
		n, err := strconv.Atoi(fields[2])
		if err != nil {
			return fmt.Errorf(".line: %v", err)
		}
		a.file, a.lineNo = strings.Clone(fields[1]), n
		return nil
	case ".inline":
		if len(fields) != 4 {
			return fmt.Errorf(".inline wants FILE LINE FUNC")
		}
		n, err := strconv.Atoi(fields[2])
		if err != nil {
			return fmt.Errorf(".inline: %v", err)
		}
		a.inline = append(a.inline, InlineFrame{Function: strings.Clone(fields[3]), File: strings.Clone(fields[1]), Line: n})
		return nil
	case ".inlineend":
		if len(a.inline) == 0 {
			return fmt.Errorf(".inlineend without .inline")
		}
		a.inline = a.inline[:len(a.inline)-1]
		return nil
	}
	return fmt.Errorf("unknown directive %q", fields[0])
}

func (a *assembler) finishFunc() error {
	if a.fn == nil {
		return nil
	}
	for _, fx := range a.fixups {
		op := &a.fn.Instrs[fx.instr].Ops[fx.op]
		idx, ok := a.fn.Labels[op.Sym]
		if ok {
			op.PC = uint32(idx * InstrBytes)
			continue
		}
		// Call targets may name another function; leave symbolic.
		if a.fn.Instrs[fx.instr].Opcode == OpCAL {
			continue
		}
		return fmt.Errorf("sass: function %q: undefined label %q", a.fn.Name, op.Sym)
	}
	a.fixups = nil
	a.mod.Functions = append(a.mod.Functions, a.fn)
	a.fn = nil
	return nil
}

func (a *assembler) instruction(s string) error {
	if a.fn == nil {
		return fmt.Errorf("instruction outside .func")
	}
	in := Instruction{
		PC:   uint32(len(a.fn.Instrs) * InstrBytes),
		Pred: Always,
		Ctrl: DefaultControl(),
	}
	// Control code suffix.
	if i := strings.Index(s, "{"); i >= 0 {
		j := strings.LastIndex(s, "}")
		if j < i {
			return fmt.Errorf("unterminated control code")
		}
		ctrl, err := parseControl(s[i+1 : j])
		if err != nil {
			return err
		}
		in.Ctrl = ctrl
		s = strings.TrimSpace(s[:i] + s[j+1:])
	}
	// Predicate guard.
	if strings.HasPrefix(s, "@") {
		i := strings.IndexAny(s, " \t")
		if i < 0 {
			return fmt.Errorf("predicate without opcode")
		}
		p, err := parsePred(s[1:i])
		if err != nil {
			return err
		}
		in.Pred = p
		s = strings.TrimSpace(s[i:])
	}
	// Opcode and modifiers.
	mn := s
	rest := ""
	if i := strings.IndexAny(s, " \t"); i >= 0 {
		mn, rest = s[:i], strings.TrimSpace(s[i:])
	}
	parts := strings.Split(mn, ".")
	op, ok := OpcodeByName(parts[0])
	if !ok {
		return fmt.Errorf("unknown opcode %q", parts[0])
	}
	in.Opcode = op
	for _, p := range parts[1:] {
		m, ok := ModifierByName(p)
		if !ok {
			return fmt.Errorf("unknown modifier %q on %s", p, parts[0])
		}
		in.Mods = in.Mods.With(m)
	}
	// Operands.
	if rest != "" {
		for _, tok := range splitOperands(rest) {
			o, err := a.parseOperand(tok, op)
			if err != nil {
				return err
			}
			if o.Kind == KindLabel {
				a.fixups = append(a.fixups, fixup{len(a.fn.Instrs), len(in.Ops)})
			}
			in.Ops = append(in.Ops, o)
		}
	}
	// Variable-latency instructions must allocate a barrier so their
	// completion is observable; default to W:0 for loads, R:0 for stores
	// if the author omitted one.
	info := op.Info()
	if info.VariableLatency && in.Ctrl.WriteBar == NoBarrier && in.Ctrl.ReadBar == NoBarrier {
		if info.Store {
			in.Ctrl.ReadBar = 0
		} else {
			in.Ctrl.WriteBar = 0
		}
	}
	a.fn.Instrs = append(a.fn.Instrs, in)
	li := LineInfo{File: a.file, Line: a.lineNo}
	if len(a.inline) > 0 {
		li.Inline = append([]InlineFrame(nil), a.inline...)
		// The instruction's own position is that of the innermost
		// inlined function body; keep the .line value as given.
	}
	a.fn.Lines = append(a.fn.Lines, li)
	return nil
}

// splitOperands splits on top-level commas (commas inside brackets do not
// occur in this grammar, but be permissive).
func splitOperands(s string) []string {
	var out []string
	depth := 0
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '[', '{':
			depth++
		case ']', '}':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	out = append(out, strings.TrimSpace(s[start:]))
	return out
}

func (a *assembler) parseOperand(tok string, op Opcode) (Operand, error) {
	switch {
	case tok == "":
		return Operand{}, fmt.Errorf("empty operand")
	case tok == "RZ":
		return RegOp(RZ), nil
	case tok == "PT":
		return RegOp(PT), nil
	case strings.HasPrefix(tok, "SR_"):
		for i, n := range specialNames {
			if n == tok {
				return RegOp(Reg{RegSpecial, uint8(i)}), nil
			}
		}
		return Operand{}, fmt.Errorf("unknown special register %q", tok)
	case tok[0] == 'R' && len(tok) > 1 && isDigits(tok[1:]):
		n, _ := strconv.Atoi(tok[1:])
		if n > MaxGPR {
			return Operand{}, fmt.Errorf("register %s out of range", tok)
		}
		return RegOp(R(n)), nil
	case tok[0] == 'P' && len(tok) > 1 && isDigits(tok[1:]):
		n, _ := strconv.Atoi(tok[1:])
		if n >= PTIndex {
			return Operand{}, fmt.Errorf("predicate %s out of range", tok)
		}
		return RegOp(P(n)), nil
	case tok == "!PT":
		return RegOp(Reg{RegPred, PTIndex}), nil
	case tok[0] == '[':
		return parseMem(tok)
	case strings.HasPrefix(tok, "c["):
		return parseConst(tok)
	case strings.HasSuffix(tok, "f") && isFloatLit(tok[:len(tok)-1]):
		v, err := strconv.ParseFloat(tok[:len(tok)-1], 32)
		if err != nil {
			return Operand{}, err
		}
		return FImmOp(float32(v)), nil
	case isIntLit(tok):
		v, err := parseInt(tok)
		if err != nil {
			return Operand{}, err
		}
		return ImmOp(v), nil
	case isIdent(tok):
		return LabelOp(strings.Clone(tok)), nil
	}
	return Operand{}, fmt.Errorf("cannot parse operand %q", tok)
}

func parseMem(tok string) (Operand, error) {
	if !strings.HasSuffix(tok, "]") {
		return Operand{}, fmt.Errorf("unterminated memory operand %q", tok)
	}
	body := tok[1 : len(tok)-1]
	base := body
	off := int32(0)
	for i := 1; i < len(body); i++ {
		if body[i] == '+' || body[i] == '-' {
			base = body[:i]
			v, err := parseInt(body[i+1:])
			if err != nil {
				return Operand{}, fmt.Errorf("memory offset: %v", err)
			}
			if body[i] == '-' {
				v = -v
			}
			off = v
			break
		}
	}
	base = strings.TrimSpace(base)
	var r Reg
	switch {
	case base == "RZ":
		r = RZ
	case base != "" && base[0] == 'R' && isDigits(base[1:]):
		n, _ := strconv.Atoi(base[1:])
		if n > MaxGPR {
			return Operand{}, fmt.Errorf("register %s out of range", base)
		}
		r = R(n)
	default:
		return Operand{}, fmt.Errorf("bad memory base %q", base)
	}
	return MemOp(r, off), nil
}

func parseConst(tok string) (Operand, error) {
	// c[0xB][0xOFF]
	rest := strings.TrimPrefix(tok, "c[")
	i := strings.Index(rest, "]")
	if i < 0 {
		return Operand{}, fmt.Errorf("bad constant operand %q", tok)
	}
	bank, err := parseInt(rest[:i])
	if err != nil {
		return Operand{}, err
	}
	rest = rest[i+1:]
	if !strings.HasPrefix(rest, "[") || !strings.HasSuffix(rest, "]") {
		return Operand{}, fmt.Errorf("bad constant operand %q", tok)
	}
	off, err := parseInt(rest[1 : len(rest)-1])
	if err != nil {
		return Operand{}, err
	}
	if bank < 0 || bank > 31 || off < 0 || off > math.MaxUint16 {
		return Operand{}, fmt.Errorf("constant operand %q out of range", tok)
	}
	return ConstOp(uint8(bank), uint16(off)), nil
}

func parsePred(tok string) (Predicate, error) {
	neg := false
	if strings.HasPrefix(tok, "!") {
		neg = true
		tok = tok[1:]
	}
	if tok == "PT" {
		return Predicate{Reg: PT, Negated: neg}, nil
	}
	if len(tok) > 1 && tok[0] == 'P' && isDigits(tok[1:]) {
		n, _ := strconv.Atoi(tok[1:])
		if n >= PTIndex {
			return Predicate{}, fmt.Errorf("predicate P%d out of range", n)
		}
		return Predicate{Reg: P(n), Negated: neg}, nil
	}
	return Predicate{}, fmt.Errorf("bad predicate %q", tok)
}

func parseControl(s string) (Control, error) {
	c := DefaultControl()
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		switch {
		case part == "Y":
			c.Yield = true
		case strings.HasPrefix(part, "S:"):
			n, err := strconv.Atoi(part[2:])
			if err != nil || n < 0 || n > 15 {
				return c, fmt.Errorf("bad stall %q", part)
			}
			c.Stall = uint8(n)
		case strings.HasPrefix(part, "W:"):
			n, err := strconv.Atoi(part[2:])
			if err != nil || n < 0 || n >= NumBarriers {
				return c, fmt.Errorf("bad write barrier %q", part)
			}
			c.WriteBar = int8(n)
		case strings.HasPrefix(part, "R:"):
			n, err := strconv.Atoi(part[2:])
			if err != nil || n < 0 || n >= NumBarriers {
				return c, fmt.Errorf("bad read barrier %q", part)
			}
			c.ReadBar = int8(n)
		case strings.HasPrefix(part, "Q:"):
			for _, b := range strings.Split(part[2:], "|") {
				n, err := strconv.Atoi(strings.TrimSpace(b))
				if err != nil || n < 0 || n >= NumBarriers {
					return c, fmt.Errorf("bad wait mask entry %q", b)
				}
				c.WaitMask |= 1 << uint(n)
			}
		default:
			return c, fmt.Errorf("unknown control field %q", part)
		}
	}
	return c, nil
}

func isDigits(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == '$' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func isIntLit(s string) bool {
	if strings.HasPrefix(s, "-") {
		s = s[1:]
	}
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		return len(s) > 2
	}
	return isDigits(s)
}

func isFloatLit(s string) bool {
	if s == "" {
		return false
	}
	_, err := strconv.ParseFloat(s, 32)
	return err == nil
}

func parseInt(s string) (int32, error) {
	s = strings.TrimSpace(s)
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	var v uint64
	var err error
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		v, err = strconv.ParseUint(s[2:], 16, 32)
	} else {
		v, err = strconv.ParseUint(s, 10, 32)
	}
	if err != nil {
		return 0, err
	}
	if neg {
		return int32(-int64(v)), nil
	}
	return int32(v), nil
}
