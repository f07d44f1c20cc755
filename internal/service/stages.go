package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"gpa/internal/apierr"
	"gpa/internal/gpusim"
	"gpa/internal/profiler"
	"gpa/internal/sass"
	"gpa/internal/store"
	"gpa/internal/structure"

	adv "gpa/internal/advisor"
)

// stageSchema versions the stage keys AND the blob payload encodings
// together, anchored to digestSchema so any change to the canonical
// field encoding invalidates stored artifacts. Blobs written under
// another schema are misses by construction (the framing rejects them),
// never misreads.
const stageSchema = "gpa-stage/3+" + digestSchema

// OpenDisk opens (creating if needed) an on-disk artifact store at dir
// under this build's stage schema.
func OpenDisk(dir string) (*store.Disk, error) {
	return store.Open(dir, stageSchema)
}

// frontendArtifact is the memory-only stage artifact for the module
// front-end: the first module seen under a content hash, and its
// flattened program and CFG/loop structure, each built on first use and
// at most once (see Engine.frontend).
type frontendArtifact struct {
	mod       *sass.Module
	program   func() (*gpusim.Program, error)
	structure func() (*structure.Structure, error)
}

// Stage blob payloads share one framing: a header — one line of compact
// JSON in the one form appendHeader writes — a newline, then exactly
// BodyLen raw body bytes. The header carries every scalar a response
// needs, so building the shared response parses some hundred bytes
// whatever the body weighs. The body is the stage's wire tail document
// (a wireTail, compactly encoded), so every response — measure, profile
// or advice, leader or hit, from memory or from disk — serves the bytes
// after tailOpen as they are:
//
//	measure: cycles, elapsedMs; the body is {"cycles":…,"elapsedMs":…}
//	profile: cycles, elapsedMs, profileDigest, kernel; the body ends in
//	         "profile":<the canonical compact profile JSON>, whose
//	         SHA-256 is the profile digest
//	advice:  cycles, elapsedMs, profileDigest, kernel; the body ends in
//	         the advice entries and the report text
type payloadHeader struct {
	ElapsedMS     float64 `json:"elapsedMs"`
	Cycles        int64   `json:"cycles"`
	ProfileDigest string  `json:"profileDigest,omitempty"`
	Kernel        string  `json:"kernel,omitempty"`
	BodyLen       int     `json:"bodyLen"`
}

// maxHeaderBytes bounds the header line (a mangled kernel name is its
// only part of variable size), so a forged blob cannot make the parser
// chew on megabytes.
const maxHeaderBytes = 4096

// encodePayload frames body under h.
func encodePayload(h payloadHeader, body []byte) ([]byte, error) {
	if math.IsNaN(h.ElapsedMS) || math.IsInf(h.ElapsedMS, 0) {
		return nil, fmt.Errorf("service: %w: stage payload header: elapsedMs %v has no JSON form", apierr.ErrInternal, h.ElapsedMS)
	}
	h.BodyLen = len(body)
	out := appendHeader(make([]byte, 0, 192+len(body)), h)
	out = append(out, '\n')
	return append(out, body...), nil
}

// appendHeader appends h as encoding/json.Marshal writes it: the fields
// in declaration order, the empty strings left out.
func appendHeader(dst []byte, h payloadHeader) []byte {
	dst = appendFloat(append(dst, `{"elapsedMs":`...), h.ElapsedMS)
	dst = strconv.AppendInt(append(dst, `,"cycles":`...), h.Cycles, 10)
	if h.ProfileDigest != "" {
		dst = appendString(append(dst, `,"profileDigest":`...), h.ProfileDigest)
	}
	if h.Kernel != "" {
		dst = appendString(append(dst, `,"kernel":`...), h.Kernel)
	}
	dst = strconv.AppendInt(append(dst, `,"bodyLen":`...), int64(h.BodyLen), 10)
	return append(dst, '}')
}

// parseHeader reads a header line in the one form appendHeader writes:
// the keys in order, no whitespace, every number and string as
// encoding/json renders it. It cuts each token out with the validator's
// scanners and parses it leniently, then accepts the line only if
// re-encoding the values gives back its bytes exactly, so it need not
// know what else JSON allows. A header the strict encoding/json decoder
// accepts in another form — reordered, spaced, escaped otherwise — is
// rejected: the store's writers never wrote one.
func parseHeader(line []byte) (h payloadHeader, ok bool) {
	elapsed, rest := headerToken(line, `{"elapsedMs":`, false)
	cycles, rest := headerToken(rest, `,"cycles":`, false)
	digest, rest := headerToken(rest, `,"profileDigest":`, true)
	kernel, rest := headerToken(rest, `,"kernel":`, true)
	bodyLen, _ := headerToken(rest, `,"bodyLen":`, false)
	// A token that is missing or out of range does not re-encode to
	// itself, so the comparison below is the only check the parses need.
	h.ElapsedMS, _ = strconv.ParseFloat(string(elapsed), 64)
	h.Cycles, _ = strconv.ParseInt(string(cycles), 10, 64)
	h.BodyLen, _ = strconv.Atoi(string(bodyLen))
	h.ProfileDigest, h.Kernel = unquote(digest), unquote(kernel)
	var buf [256]byte
	return h, bytes.Equal(appendHeader(buf[:0], h), line)
}

// headerToken cuts key and the token behind it, a string if str and a
// number otherwise, off the front of line; if line does not open so, the
// token is nil and rest is line.
func headerToken(line []byte, key string, str bool) (tok, rest []byte) {
	rest, ok := bytes.CutPrefix(line, []byte(key))
	n := -1
	switch {
	case !ok || len(rest) == 0:
	case !str:
		n = scanNumber(rest, 0)
	case rest[0] == '"':
		n = scanString(rest, 1)
	}
	if n < 0 {
		return nil, line
	}
	return rest[:n], rest[n:]
}

// unquote decodes tok, a string token scanString accepted, or nil for
// "". It decodes every escape appendString writes; what else it is
// given it decodes to a string whose encoding is not tok — a lone
// surrogate to U+FFFD, "\/" to "/" — which parseHeader then rejects.
func unquote(tok []byte) string {
	if len(tok) < 2 {
		return ""
	}
	s := tok[1 : len(tok)-1]
	if bytes.IndexByte(s, '\\') < 0 {
		return string(s)
	}
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' {
			out = append(out, s[i])
			continue
		}
		switch i++; s[i] {
		case 'u':
			r, _ := strconv.ParseUint(string(s[i+1:i+5]), 16, 32)
			out = utf8.AppendRune(out, rune(r))
			i += 4
		case 'b', 'f', 'n', 'r', 't':
			out = append(out, "\b\f\n\r\t"[strings.IndexByte("bfnrt", s[i])])
		default: // '"', '\\', '/'
			out = append(out, s[i])
		}
	}
	return string(out)
}

// appendString appends s as encoding/json writes a string: '<', '>' and
// '&' escaped for HTML, invalid UTF-8 as U+FFFD, and U+2028 and U+2029
// escaped.
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			r, n := utf8.DecodeRuneInString(s[i:])
			switch {
			case r == utf8.RuneError && n == 1:
				dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			case r == 0x2028 || r == 0x2029:
				dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
			default:
				dst = append(dst, s[i:i+n]...)
			}
			i += n
			continue
		}
		i++
		if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
			dst = append(dst, c)
		} else if k := strings.IndexByte("\"\\\b\f\n\r\t", c); k >= 0 {
			dst = append(dst, '\\', `"\bfnrt`[k])
		} else {
			dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
		}
	}
	return append(dst, '"')
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// form that reads back as f, in exponent form below 1e-6 and from 1e21
// on, with no leading zero in a negative exponent. f is finite.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// splitPayload undoes encodePayload. A header in any form but the one
// encodePayload writes, and a body of another length than the header
// declares, are corruption, not forward compatibility — cross-version
// compatibility is the schema string's job. body aliases payload.
//
//gpa:lint-allow apierrlint decode errors degrade to counted store-corrupt misses inside lookup, and resolve wraps the one a run's own payload could raise in ErrInternal; none crosses the service boundary untyped
func splitPayload(payload []byte) (h payloadHeader, body []byte, err error) {
	nl := bytes.IndexByte(payload, '\n')
	if nl < 0 || nl > maxHeaderBytes {
		return h, nil, fmt.Errorf("service: stage payload has no header line")
	}
	h, ok := parseHeader(payload[:nl])
	if !ok {
		return h, nil, fmt.Errorf("service: stage payload header is not in its canonical form")
	}
	body = payload[nl+1:]
	if h.BodyLen != len(body) {
		return h, nil, fmt.Errorf("service: stage payload body is %d bytes, header declares %d", len(body), h.BodyLen)
	}
	if h.Cycles < 0 {
		return h, nil, fmt.Errorf("service: negative cycle count in stage payload")
	}
	return h, body, nil
}

// wireTail is the part of a gpa-result/3 body that no request can
// change: gpa.Result's fields from "cycles" on, under the same names in
// the same order (TestEncodeResultMatchesReferenceEncoder holds the two
// together). It is defined here because every stage payload stores it.
type wireTail struct {
	Cycles        int64             `json:"cycles"`
	ElapsedMS     float64           `json:"elapsedMs"`
	ProfileDigest string            `json:"profileDigest,omitempty"`
	Advice        []adv.AdviceEntry `json:"advice,omitempty"`
	Report        string            `json:"report,omitempty"`
	// Profile is the profile's canonical compact encoding, which
	// encoding/json copies as it is: the bytes it would give the struct.
	Profile json.RawMessage `json:"profile,omitempty"`
}

const (
	// tailOpen is what a wireTail document opens with and the wire tail
	// leaves out: the per-request head stands there.
	tailOpen = "{"
	// tailClose ends every document: json.Encoder ends a value with a
	// newline.
	tailClose = "}\n"
	// profileMark opens the profile, a profile document's last field.
	profileMark = `,"profile":`
	// reportMark precedes the report text, an advice document's last
	// field.
	reportMark = `,"report":`
)

// encode renders t as gpad's reference encoder renders a result:
// compact, with the newline json.Encoder ends a value with.
func (t *wireTail) encode() ([]byte, error) {
	enc, err := json.Marshal(t)
	if err != nil {
		return nil, fmt.Errorf("service: encode result: %w", err)
	}
	return append(enc, '\n'), nil
}

// appendOpen appends what the document of a response with these scalars
// opens with: the encoding of wireTail{Cycles: cycles, ElapsedMS:
// elapsed, ProfileDigest: digest}, less its closing brace.
func appendOpen(dst []byte, cycles int64, elapsed float64, digest string) []byte {
	dst = strconv.AppendInt(append(dst, `{"cycles":`...), cycles, 10)
	dst = appendFloat(append(dst, `,"elapsedMs":`...), elapsed)
	if digest != "" {
		dst = appendString(append(dst, `,"profileDigest":`...), digest)
	}
	return dst
}

// hasReport reports whether doc, a valid JSON document whose last value
// starts at last (validDoc), ends in a non-empty "report" string member.
// A valid document that ends in `"}` and a newline ends in a string
// member, whose value — the last value to start — opens at last and
// closes at end; reportMark must stand right before it.
func hasReport(doc []byte, last int) bool {
	end := len(doc) - len(`"`+tailClose)
	return end > last+1 && string(doc[end:]) == `"`+tailClose &&
		last >= len(reportMark) && string(doc[last-len(reportMark):last]) == reportMark
}

// profileArtifact is the profile-stage artifact: the profile's
// canonical JSON, always, and the struct once somebody has asked for it.
// The leader's artifact is built with the profile its run collected; a
// shared one decodes its body on first use (serving never does).
type profileArtifact struct {
	// kernel and cycles are what the body must decode to.
	kernel string
	cycles int64

	body []byte
	// prof is "already decoded"; once guards the one decode.
	once sync.Once
	prof *profiler.Profile
	err  error
}

// adviceArtifact is the advice-stage artifact: the structs for callers
// that want them (the response's document is what it is served as). The
// leader's artifact is built with the advice its run computed; a shared
// one decodes the document on first use.
type adviceArtifact struct {
	kernel string
	digest string // of the profile the advice blames

	// advice and report are "already decoded", and once guards the one
	// decode.
	once   sync.Once
	advice *adv.Advice
	// report is the rendered text, decoded from the document rather than
	// re-rendered, so a shared report is byte-identical to the cold run's
	// by construction.
	report string
	err    error

	// profKey names the blamed profile in the profile stage. A run sets
	// pa outright; a shared artifact resolves it on first use, guarded by
	// paOnce.
	profKey store.Key
	paOnce  sync.Once
	pa      *profileArtifact
	paErr   error
}

// decodeStage validates a payload of stage s and builds the shared
// response it serves, without decoding any struct; only Engine.publish
// calls it. The document must open exactly as the header's scalars
// encode (so what the response reports and what its tail says cannot
// differ) and be one JSON value; past that opening a measure carries
// nothing, a profile carries a profile of the header's kernel whose
// SHA-256 is the digest the header declares, and an advice ends in a
// non-empty report. profKey names the profile an advice blames, for the
// day somebody asks. JSON validity is checked by validJSON, which
// accepts exactly what encoding/json.Valid does at a fraction of its
// cost, and the report is found in the same forward pass (validDoc):
// on a disk hit the decode is most of what gpad does per request, and
// none of it goes through encoding/json.
//
//gpa:lint-allow apierrlint decode errors degrade to counted store-corrupt misses inside lookup, and resolve wraps the one a run's own payload could raise in ErrInternal; none crosses the service boundary untyped
func decodeStage(s stageID, payload []byte, profKey store.Key) (*Response, error) {
	h, doc, err := splitPayload(payload)
	if err != nil {
		return nil, err
	}
	if scalarOnly := s == stMeasure; (h.Kernel == "") != scalarOnly || (h.ProfileDigest == "") != scalarOnly {
		return nil, fmt.Errorf("service: %s artifact header names the wrong fields", stageNames[s])
	}
	var buf [256]byte
	rest, ok := bytes.CutPrefix(doc, appendOpen(buf[:0], h.Cycles, h.ElapsedMS, h.ProfileDigest))
	resp := &Response{Kind: Kind(s - stMeasure), Cycles: h.Cycles, ElapsedMS: h.ElapsedMS, ProfileDigest: h.ProfileDigest, doc: doc}
	switch {
	case !ok: // rejected below
	case s == stMeasure:
		ok = string(rest) == tailClose
	case s == stProfile:
		body, closed := bytes.CutSuffix(rest, []byte(tailClose))
		body, ok = bytes.CutPrefix(body, []byte(profileMark))
		// A valid profile between a fixed opening and close makes the
		// document valid.
		ok = ok && closed && bytes.HasPrefix(body, appendString(append(buf[:0], `{"kernel":`...), h.Kernel)) && validJSON(body)
		if ok {
			sum := sha256.Sum256(body)
			ok = string(hex.AppendEncode(buf[:0], sum[:])) == h.ProfileDigest
		}
		resp.prof = &profileArtifact{kernel: h.Kernel, cycles: h.Cycles, body: body}
	default:
		// hasReport reads a valid document only.
		last, valid := validDoc(doc)
		ok = valid && hasReport(doc, last)
		resp.adv = &adviceArtifact{kernel: h.Kernel, digest: h.ProfileDigest, profKey: profKey}
	}
	if !ok {
		return nil, fmt.Errorf("service: %s artifact body is not the document its header declares", stageNames[s])
	}
	return resp, nil
}

// frameStage encodes a freshly computed response as its stage's
// payload, around the document the run already made.
func frameStage(resp *Response) ([]byte, error) {
	h := payloadHeader{Cycles: resp.Cycles, ElapsedMS: resp.ElapsedMS, ProfileDigest: resp.ProfileDigest}
	if resp.prof != nil {
		h.Kernel = resp.prof.kernel
	}
	if resp.adv != nil {
		h.Kernel = resp.adv.kernel
	}
	return encodePayload(h, resp.doc)
}

// errArtifact is the typed failure of an on-demand accessor: the store
// promised a struct it can no longer produce.
func errArtifact(format string, args ...any) error {
	return fmt.Errorf("service: %w: stored %s", apierr.ErrInternal, fmt.Sprintf(format, args...))
}

// profile returns the artifact's profile, decoding the body on first
// use. The decoded profile must be the one the header described.
func (pa *profileArtifact) profile(e *Engine) (*profiler.Profile, error) {
	pa.once.Do(func() {
		if pa.prof != nil {
			return
		}
		e.n.stageDecodes.Add(1)
		var prof profiler.Profile
		if err := json.Unmarshal(pa.body, &prof); err != nil {
			pa.err = errArtifact("profile does not decode: %v", err)
			return
		}
		if prof.Kernel != pa.kernel || prof.Cycles != pa.cycles {
			pa.err = errArtifact("profile decodes to %q at %d cycles, its header declares %q at %d",
				prof.Kernel, prof.Cycles, pa.kernel, pa.cycles)
			return
		}
		pa.prof = &prof
	})
	return pa.prof, pa.err
}

// decoded returns the artifact's advice and report text, decoding the
// document on first use.
func (aa *adviceArtifact) decoded(e *Engine, doc []byte) (*adv.Advice, string, error) {
	aa.once.Do(func() {
		if aa.advice != nil {
			return
		}
		e.n.stageDecodes.Add(1)
		var t wireTail
		if err := json.Unmarshal(doc, &t); err != nil {
			aa.err = errArtifact("advice does not decode: %v", err)
			return
		}
		if t.Report == "" {
			aa.err = errArtifact("advice decodes to no report")
			return
		}
		aa.advice, aa.report = &adv.Advice{Kernel: aa.kernel, Entries: t.Advice}, t.Report
	})
	return aa.advice, aa.report, aa.err
}

// profileArtifact returns the artifact of the profile this advice
// blames, fetching a shared artifact's from the profile stage on first
// use: serving advice never touches that stage.
func (aa *adviceArtifact) profileArtifact(e *Engine) (*profileArtifact, error) {
	aa.paOnce.Do(func() {
		if aa.pa != nil {
			return
		}
		pv := e.lookup(stProfile, &stageKeys{stProfile: aa.profKey}, tierMemory)
		switch {
		case pv == nil:
			aa.paErr = errArtifact("profile is gone from under the advice that blames it")
		case pv.ProfileDigest != aa.digest:
			aa.paErr = errArtifact("profile has digest %.16s, its advice blames %.16s", pv.ProfileDigest, aa.digest)
		default:
			aa.pa = pv.prof
		}
	})
	return aa.pa, aa.paErr
}
