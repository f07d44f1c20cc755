// Package cubin implements a binary container for GPU modules, playing
// the role NVIDIA CUBIN files play for GPA (Section 3, Figure 2's
// "binaries" input): it stores an architecture flag, function symbols
// with their visibility (global kernels vs device functions),
// fixed-length encoded instruction streams, a line-mapping table, and
// inline stacks. GPA's profiler records these containers at runtime;
// the static analyzer later unpacks them to recover control flow,
// program structure, and architectural features. Input/output is the
// Pack/Unpack pair between *sass.Module and a byte blob. The stored
// architecture flag is the module's compile target (sm_70, sm_75, ...),
// which a profile records; it does not pick the GPU model a launch
// runs on — the caller names that.
package cubin

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"gpa/internal/sass"
)

// Magic identifies the container format.
const Magic = 0x4755_4243 // "CBUG" little-endian spelled GCUB-ish

// Version is the current format version.
const Version = 1

// maxSaneCount bounds table sizes while decoding untrusted input.
const maxSaneCount = 1 << 20

// Pack serializes a module. Instructions are encoded into 128-bit words;
// label names inside function bodies are not preserved (branch operands
// keep their resolved PCs, as in a real binary).
func Pack(m *sass.Module) ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("cubin: %w", err)
	}
	var buf bytes.Buffer
	w := func(v any) {
		// bytes.Buffer writes cannot fail.
		_ = binary.Write(&buf, binary.LittleEndian, v)
	}
	strtab := newStringTable()
	// Pre-intern all strings so the table can be written up front.
	for _, f := range m.Functions {
		strtab.intern(f.Name)
		for _, li := range f.Lines {
			strtab.intern(li.File)
			for _, fr := range li.Inline {
				strtab.intern(fr.Function)
				strtab.intern(fr.File)
			}
		}
	}

	w(uint32(Magic))
	w(uint32(Version))
	w(uint32(m.Arch))
	w(uint32(len(m.Functions)))

	w(uint32(len(strtab.list)))
	for _, s := range strtab.list {
		w(uint32(len(s)))
		buf.WriteString(s)
	}

	for _, f := range m.Functions {
		code, err := sass.EncodeFunction(m, f)
		if err != nil {
			return nil, fmt.Errorf("cubin: %w", err)
		}
		w(uint32(strtab.intern(f.Name)))
		w(uint8(f.Visibility))
		w(uint32(len(code)))
		buf.Write(code)
		w(uint32(len(f.Lines)))
		for _, li := range f.Lines {
			w(uint32(strtab.intern(li.File)))
			w(uint32(li.Line))
			w(uint16(len(li.Inline)))
			for _, fr := range li.Inline {
				w(uint32(strtab.intern(fr.Function)))
				w(uint32(strtab.intern(fr.File)))
				w(uint32(fr.Line))
			}
		}
	}
	return buf.Bytes(), nil
}

// Unpack deserializes a module packed by Pack. Function-local label
// names are not recovered; branch targets remain resolved PCs.
func Unpack(data []byte) (*sass.Module, error) {
	r := &reader{data: data}
	if r.u32() != Magic {
		return nil, fmt.Errorf("cubin: bad magic")
	}
	if v := r.u32(); v != Version {
		return nil, fmt.Errorf("cubin: unsupported version %d", v)
	}
	m := &sass.Module{Arch: int(r.u32())}
	nfuncs := r.u32()
	nstrs := r.u32()
	if r.err != nil {
		return nil, r.err
	}
	if nfuncs > maxSaneCount || nstrs > maxSaneCount {
		return nil, fmt.Errorf("cubin: implausible table sizes (%d funcs, %d strings)", nfuncs, nstrs)
	}
	strs := make([]string, nstrs)
	for i := range strs {
		n := r.u32()
		strs[i] = string(r.bytes(int(n)))
	}
	str := func(i uint32) (string, error) {
		if int(i) >= len(strs) {
			return "", fmt.Errorf("cubin: string index %d out of range", i)
		}
		return strs[i], nil
	}

	// First pass gathers function names so CAL ordinals can resolve;
	// names appear in order, so decode headers lazily: read all function
	// records first, then decode code.
	type rawFunc struct {
		name  string
		vis   sass.Visibility
		code  []byte
		lines []sass.LineInfo
	}
	raws := make([]rawFunc, 0, nfuncs)
	for fi := uint32(0); fi < nfuncs && r.err == nil; fi++ {
		var rf rawFunc
		name, err := str(r.u32())
		if err != nil {
			return nil, err
		}
		rf.name = name
		rf.vis = sass.Visibility(r.u8())
		codeLen := r.u32()
		if codeLen > maxSaneCount*sass.InstrBytes {
			return nil, fmt.Errorf("cubin: implausible code size %d", codeLen)
		}
		rf.code = r.bytes(int(codeLen))
		nlines := r.u32()
		if nlines > maxSaneCount {
			return nil, fmt.Errorf("cubin: implausible line count %d", nlines)
		}
		for li := uint32(0); li < nlines && r.err == nil; li++ {
			var info sass.LineInfo
			if info.File, err = str(r.u32()); err != nil {
				return nil, err
			}
			info.Line = int(r.u32())
			depth := r.u16()
			for d := uint16(0); d < depth && r.err == nil; d++ {
				var fr sass.InlineFrame
				if fr.Function, err = str(r.u32()); err != nil {
					return nil, err
				}
				if fr.File, err = str(r.u32()); err != nil {
					return nil, err
				}
				fr.Line = int(r.u32())
				info.Inline = append(info.Inline, fr)
			}
			rf.lines = append(rf.lines, info)
		}
		raws = append(raws, rf)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.pos != len(r.data) {
		return nil, fmt.Errorf("cubin: %d trailing bytes", len(r.data)-r.pos)
	}
	fnName := func(i int) (string, bool) {
		if i < len(raws) {
			return raws[i].name, true
		}
		return "", false
	}
	for _, rf := range raws {
		instrs, err := sass.DecodeFunction(rf.code, fnName)
		if err != nil {
			return nil, fmt.Errorf("cubin: function %q: %w", rf.name, err)
		}
		m.Functions = append(m.Functions, &sass.Function{
			Name:       rf.name,
			Visibility: rf.vis,
			Instrs:     instrs,
			Lines:      rf.lines,
			Labels:     map[string]int{},
		})
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("cubin: unpacked module invalid: %w", err)
	}
	return m, nil
}

type stringTable struct {
	index map[string]uint32
	list  []string
}

func newStringTable() *stringTable {
	return &stringTable{index: map[string]uint32{}}
}

func (t *stringTable) intern(s string) uint32 {
	if i, ok := t.index[s]; ok {
		return i
	}
	i := uint32(len(t.list))
	t.index[s] = i
	t.list = append(t.list, s)
	return i
}

type reader struct {
	data []byte
	pos  int
	err  error
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.pos+n > len(r.data) {
		r.err = fmt.Errorf("cubin: truncated input at offset %d", r.pos)
		return nil
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b
}

func (r *reader) u32() uint32 {
	b := r.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u16() uint16 {
	b := r.bytes(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *reader) u8() uint8 {
	b := r.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}
