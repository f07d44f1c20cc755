package main

import (
	"bytes"
	"io"
	"net/http"
	"reflect"
	"slices"
	"strings"
)

// decodeKernel reads a single-kernel request body into req. The body is
// read once, through the same limit decode applies, into a pooled
// buffer. A body in the plain subset parseKernelRequest reads is
// decoded in one forward pass, its asm source resolved against s's
// kernel cache while the buffer is still alive; any other is replayed,
// as it was read, to decode, so it gets exactly the answer
// encoding/json gave it. On failure it writes the error response and
// returns false.
func (s *server) decodeKernel(w http.ResponseWriter, r *http.Request, req *kernelRequest) bool {
	bufp := scratchPool.Get().(*[]byte)
	// Room for the announced length up to what the pool keeps: a longer
	// body grows as it arrives, so announcing bytes it never sends cannot
	// make gpad allocate them.
	b := bytes.NewBuffer(slices.Grow((*bufp)[:0], int(min(max(r.ContentLength, 0), maxPooledScratch))+bytes.MinRead))
	_, err := b.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	body := b.Bytes()
	ok := err == nil && parseKernelRequest(body, req, s.kernels)
	if !ok {
		*req = kernelRequest{}
		ok = decodeFrom(w, &replay{body, err}, req)
	}
	putScratch(bufp, body)
	return ok
}

// replay yields a body as decodeKernel read it: its bytes, then the
// read's error (io.EOF after a clean read).
type replay struct {
	b   []byte
	err error
}

func (r *replay) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		if r.err == nil {
			return 0, io.EOF
		}
		return 0, r.err
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}

// parseKernelRequest decodes b into req if b is one JSON object in the
// plain subset clients send — keys spelled exactly as kernelRequest's
// json tags, string and integer values, ASCII strings whose escapes are
// the two-character ones, no "binary" — and reports whether it did.
// What it accepts, it decodes as encoding/json does (a repeated key's
// last value wins); it declines everything else, valid or not, an
// escaped key and a repeated "asm" key included.
//
// The asm string is kept as the body spells it until the whole object
// is accepted; then it and the resolved launch probe kernels. A hit
// hands req the cached kernel and leaves Asm empty: the span was stored
// only after it passed the checks below, so an equal span passes them
// too, and it is neither checked nor unescaped again. A miss checks and
// unescapes it into Asm, and sets asmRaw, the span's own copy, which
// job stores the kernel under.
func parseKernelRequest(b []byte, req *kernelRequest, kernels *kernelCache) bool {
	p := reqParser{b: b}
	if !p.eat('{') {
		return false
	}
	if !p.eat('}') {
		for {
			key, ok := p.raw()
			if !ok || !p.eat(':') || !p.field(key, req) {
				return false
			}
			if p.eat('}') {
				break
			}
			if !p.eat(',') {
				return false
			}
		}
	}
	if !p.end() {
		return false
	}
	if len(p.asm) == 0 {
		return true
	}
	if req.kernel, _ = probe(kernels, sourceAsmRaw, req.launch(), p.asm); req.kernel != nil {
		return true
	}
	asm, ok := unquote(p.asm)
	if !ok {
		return false
	}
	req.Asm, req.asmRaw = asm, asm
	if len(asm) != len(p.asm) {
		req.asmRaw = string(p.asm)
	}
	return true
}

// reqParser is parseKernelRequest's cursor over the body; asm is the
// "asm" value's span.
type reqParser struct {
	b   []byte
	i   int
	asm []byte
}

// ws skips JSON whitespace.
func (p *reqParser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// eat consumes c, after whitespace, if it is next.
func (p *reqParser) eat(c byte) bool {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// end reports whether nothing but whitespace is left.
func (p *reqParser) end() bool {
	p.ws()
	return p.i == len(p.b)
}

// raw consumes a string and returns its body as it stands in b, after
// one search for its closing quote: its bytes are not looked at. A
// key's need no check, as it must equal a json tag; every value's but
// asm's go through unquote at once.
func (p *reqParser) raw() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	start := p.i
	for {
		q := bytes.IndexByte(p.b[p.i:], '"')
		if q < 0 {
			return nil, false
		}
		p.i += q + 1
		// The quote ends the string unless an odd run of backslashes
		// escapes it (unquote checks every escape).
		n := 0
		for p.i-2-n >= start && p.b[p.i-2-n] == '\\' {
			n++
		}
		if n%2 == 0 {
			return p.b[start : p.i-1], true
		}
	}
}

// str consumes a string value into a fresh string: it must not alias
// the pooled body, which the next request reuses.
func (p *reqParser) str() (string, bool) {
	s, ok := p.raw()
	if !ok {
		return "", false
	}
	return unquote(s)
}

// unquote returns a string's body as a fresh string with its escapes
// undone. It declines control and non-ASCII bytes, \u and every invalid
// escape.
func unquote(s []byte) (string, bool) {
	for _, c := range s {
		if c-0x20 >= 0x60 { // below 0x20 or above 0x7f
			return "", false
		}
	}
	if bytes.IndexByte(s, '\\') < 0 {
		return string(s), true
	}
	var sb strings.Builder
	sb.Grow(len(s))
	for {
		i := bytes.IndexByte(s, '\\')
		if i < 0 {
			sb.Write(s)
			return sb.String(), true
		}
		sb.Write(s[:i])
		c := escapes[s[i+1]]
		if c == 0 {
			return "", false
		}
		sb.WriteByte(c)
		s = s[i+2:]
	}
}

// escapes maps the byte after a backslash to the byte the escape stands
// for; \u and every invalid escape map to 0.
var escapes = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// digits consumes an unsigned integer of at most maxDigits digits
// without a leading zero. A longer number, a fraction or an exponent
// leaves a byte the caller declines, as it is no ',' or '}'.
func (p *reqParser) digits(maxDigits int) (uint64, bool) {
	start := p.i
	var v uint64
	for p.i < len(p.b) && p.i-start < maxDigits && '0' <= p.b[p.i] && p.b[p.i] <= '9' {
		v = v*10 + uint64(p.b[p.i]-'0')
		p.i++
	}
	return v, p.i > start && (p.b[start] != '0' || p.i-start == 1)
}

// kernelFields maps the json name of each kernelRequest field to the
// field; a field named by no tag is left to encoding/json.
var kernelFields = func() map[string]int {
	t := reflect.TypeFor[kernelRequest]()
	m := make(map[string]int, t.NumField())
	for i := range t.NumField() {
		if name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ","); name != "" && name != "-" {
			m[name] = i
		}
	}
	return m
}()

// field consumes the value of key into its kernelRequest field: a
// string, an int or the uint64 seed; asm's span is kept in p.asm. Any
// other key — "binary", a case variant, an escaped or unknown one — is
// declined, and so is a second "asm": only the span that is kept is
// ever checked, and encoding/json checks every one.
func (p *reqParser) field(key []byte, r *kernelRequest) bool {
	if string(key) == "asm" {
		if p.asm != nil {
			return false
		}
		var ok bool
		p.asm, ok = p.raw()
		return ok
	}
	i, ok := kernelFields[string(key)]
	if !ok {
		return false
	}
	switch f := reflect.ValueOf(r).Elem().Field(i).Addr().Interface().(type) {
	case *string:
		*f, ok = p.str()
	case *int:
		neg := p.eat('-')
		var v uint64
		v, ok = p.digits(9) // nine digits fit an int on every platform
		if *f = int(v); neg {
			*f = -*f
		}
	case **uint64:
		p.ws()
		var v uint64
		v, ok = p.digits(19) // any 19 digits fit a uint64
		*f = &v
	default:
		return false
	}
	return ok
}
