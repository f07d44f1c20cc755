package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync"

	"gpa/internal/apierr"
	"gpa/internal/profiler"
	"gpa/internal/store"

	adv "gpa/internal/advisor"
)

// stageSchema versions the stage keys AND the blob payload encodings
// together, anchored to digestSchema so any change to the canonical
// field encoding invalidates stored artifacts. Blobs written under
// another schema are misses by construction (the framing rejects them),
// never misreads.
const stageSchema = "gpa-stage/4+" + digestSchema

// OpenDisk opens (creating if needed) an on-disk artifact store at dir
// under this build's stage schema.
func OpenDisk(dir string) (*store.Disk, error) {
	return store.Open(dir, stageSchema)
}

// A stage payload is the document of the response it serves: the
// stage's wire tail (a wireTail, compactly encoded) with its opening
// brace, so every response — measure, profile or advice, leader or hit,
// from memory or from disk — serves the bytes after tailOpen as they
// are, and a run stores the bytes it encoded. The scalars a response
// reports are read back from the document's opening (parseOpen); the
// store's frame carries the payload's length and checksum, and the
// kernel is the request's entry, which every stage key hashes:
//
//	measure: {"cycles":…,"elapsedMs":…}
//	profile: the opening and its profileDigest, then "profile":<the
//	         canonical compact profile JSON>, whose SHA-256 is the digest
//	advice:  the opening and its profileDigest, then the advice entries
//	         and the report text

// maxNumberBytes bounds a number token in a document's opening: the
// longest a float64 is written is 25 bytes, "-0.0000012345678901234567",
// so a forged blob cannot make the parser chew on megabytes of digits.
const maxNumberBytes = 25

// parseOpen reads the scalars doc opens with, in the one form appendOpen
// writes: the keys in order, no whitespace, every number and string as
// encoding/json renders it. It cuts each number out with scanNumber and
// parses it leniently, then accepts the opening only if appendOpen gives
// back its bytes exactly, so it need not know what else JSON allows. An
// opening the strict encoding/json decoder reads in another form —
// reordered, spaced, escaped otherwise — is rejected: no run wrote one.
// The digest is taken as it stands between its quotes (plainString); an
// escaped or torn one leaves the opening ending before its key. rest is
// what follows the opening.
func parseOpen(doc []byte) (cycles int64, elapsed float64, digest string, rest []byte, ok bool) {
	c, rest := openNumber(doc, `{"cycles":`)
	e, rest := openNumber(rest, `,"elapsedMs":`)
	// A number that is missing or out of range does not re-encode to
	// itself, so the comparison below is the only check the parses need.
	cycles, _ = strconv.ParseInt(string(c), 10, 64)
	elapsed, _ = strconv.ParseFloat(string(e), 64)
	if d, found := bytes.CutPrefix(rest, []byte(`,"profileDigest":`)); found {
		if s, n := plainString(d); n >= 0 {
			digest, rest = s, d[n:]
		}
	}
	var buf [128]byte
	open := appendOpen(buf[:0], cycles, elapsed, digest)
	return cycles, elapsed, digest, rest, len(open) == len(doc)-len(rest) && bytes.HasPrefix(doc, open)
}

// openNumber cuts key and the number of at most maxNumberBytes behind it
// off the front of doc; if doc does not open so, the number is nil and
// rest is doc.
func openNumber(doc []byte, key string) (num, rest []byte) {
	if rest, ok := bytes.CutPrefix(doc, []byte(key)); ok && len(rest) > 0 {
		if n := scanNumber(rest[:min(len(rest), maxNumberBytes)], 0); n >= 0 {
			return rest[:n], rest[n:]
		}
	}
	return nil, doc
}

// plainString reads the string data opens with, cut at its next quote,
// if AppendString writes back exactly those bytes for its body: it
// returns the body and the index after the closing quote, or -1 for a
// string that is torn or needs an escape.
func plainString(data []byte) (string, int) {
	if len(data) > 0 && data[0] == '"' {
		if j := bytes.IndexByte(data[1:], '"') + 1; j > 0 {
			var buf [80]byte
			if s := string(data[1:j]); bytes.Equal(AppendString(buf[:0], s), data[:j+1]) {
				return s, j + 1
			}
		}
	}
	return "", -1
}

// scanNumber scans -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? at i,
// returning the index after it, or -1.
func scanNumber(data []byte, i int) int {
	if data[i] == '-' {
		i++
	}
	switch {
	case i == len(data):
		return -1
	case data[i] == '0':
		i++
	case '1' <= data[i] && data[i] <= '9':
		i = skipDigits(data, i+1)
	default:
		return -1
	}
	if i < len(data) && data[i] == '.' {
		if i = someDigits(data, i+1); i < 0 {
			return -1
		}
	}
	if i < len(data) && data[i]|0x20 == 'e' {
		if i++; i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		i = someDigits(data, i)
	}
	return i
}

func skipDigits(data []byte, i int) int {
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		i++
	}
	return i
}

// someDigits is skipDigits for a run that must not be empty: -1 if it is.
func someDigits(data []byte, i int) int {
	if j := skipDigits(data, i); j > i {
		return j
	}
	return -1
}

// AppendString appends s as encoding/json writes a string. The strings
// this is given (entry names, registry keys, validated trace IDs, hex
// digests) are plain ASCII in practice and are copied between quotes;
// anything else goes through encoding/json itself, so escaping can never
// disagree with it.
func AppendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
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
		dst = AppendString(append(dst, `,"profileDigest":`...), digest)
	}
	return dst
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
	// pa outright, on its own artifact and, on an engine with no disk, on
	// the one it publishes; any other shared artifact resolves it on
	// first use, guarded by paOnce.
	profKey store.Key
	paOnce  sync.Once
	pa      *profileArtifact
	paErr   error
}

// decodeStage checks doc, a payload of stage s, and builds the shared
// response it serves, without decoding any struct or copying the
// document; only Engine.publish calls it. Every check is O(1) per
// document: it opens in its canonical form (parseOpen), with the fields
// its stage has, so what the response reports and what its tail says
// cannot differ; past that opening a measure carries nothing, a profile
// carries a profile of kernel — the entry the request launches — and an
// advice ends in a string, its report. profKey names the profile an
// advice blames, for the day somebody asks. No byte past those is read:
// the store's frame checksums every byte of a stored payload, and only
// this package's encoder writes frames under stageSchema, which
// TestEncodedStageDocuments holds to valid JSON, a profile carrying its
// body's SHA-256 and an advice a non-empty report. A disk hit thus
// checks its bytes once.
//
//gpa:lint-allow apierrlint decode errors degrade to counted store-corrupt misses inside lookup, and resolve wraps the one a run's own payload could raise in ErrInternal; none crosses the service boundary untyped
func decodeStage(s stageID, doc []byte, kernel string, profKey store.Key) (*Response, error) {
	cycles, elapsed, digest, rest, ok := parseOpen(doc)
	switch {
	case !ok:
		return nil, fmt.Errorf("service: %s artifact does not open in its canonical form", stageNames[s])
	case cycles < 0:
		return nil, fmt.Errorf("service: negative cycle count in %s artifact", stageNames[s])
	case (digest == "") != (s == stMeasure):
		return nil, fmt.Errorf("service: %s artifact opens with the wrong fields", stageNames[s])
	}
	resp := &Response{Kind: Kind(s - stMeasure), Cycles: cycles, ElapsedMS: elapsed, ProfileDigest: digest, doc: doc}
	switch s {
	case stMeasure:
		ok = string(rest) == tailClose
	case stProfile:
		body, closed := bytes.CutSuffix(rest, []byte(tailClose))
		body, ok = bytes.CutPrefix(body, []byte(profileMark))
		var buf [256]byte
		ok = ok && closed && bytes.HasPrefix(body, AppendString(append(buf[:0], `{"kernel":`...), kernel))
		resp.prof = &profileArtifact{kernel: kernel, cycles: cycles, body: body}
	default:
		ok = bytes.HasSuffix(rest, []byte(`"`+tailClose))
		resp.adv = &adviceArtifact{kernel: kernel, digest: digest, profKey: profKey}
	}
	if !ok {
		return nil, fmt.Errorf("service: %s artifact is not the document its opening declares", stageNames[s])
	}
	return resp, nil
}

// errArtifact is the typed failure of an on-demand accessor: the store
// promised a struct it can no longer produce.
func errArtifact(format string, args ...any) error {
	return fmt.Errorf("service: %w: stored %s", apierr.ErrInternal, fmt.Sprintf(format, args...))
}

// profile returns the artifact's profile, decoding the body on first
// use. The decoded profile must be of the request's kernel and the
// cycles the document opens with.
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
			pa.err = errArtifact("profile decodes to %q at %d cycles, want %q at %d",
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
		pv := e.lookup(stProfile, &stageKeys{stProfile: aa.profKey}, aa.kernel, tierMemory, true)
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
