package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

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

// Stage blob payloads share one framing: a header — one line of strict
// compact JSON — a newline, then exactly BodyLen raw body bytes. The
// header carries every scalar a response needs, so building the shared
// response parses some hundred bytes whatever the body weighs. The body
// is the stage's wire tail document (a wireTail, compactly encoded), so
// every response — measure, profile or advice, leader or hit, from
// memory or from disk — serves the bytes after tailOpen as they are:
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
// only part of variable size), so a forged blob cannot make the strict
// decoder chew on megabytes.
const maxHeaderBytes = 4096

// encodePayload frames body under h.
func encodePayload(h payloadHeader, body []byte) ([]byte, error) {
	h.BodyLen = len(body)
	hdr, err := json.Marshal(h)
	if err != nil {
		return nil, fmt.Errorf("service: stage payload header: %w", err)
	}
	out := make([]byte, 0, len(hdr)+1+len(body))
	out = append(out, hdr...)
	out = append(out, '\n')
	return append(out, body...), nil
}

// splitPayload undoes encodePayload. Unknown header fields, trailing
// header data and a body of another length than the header declares
// are corruption, not forward compatibility — cross-version
// compatibility is the schema string's job. body aliases payload.
//
//gpa:lint-allow apierrlint decode errors degrade to counted store-corrupt misses inside lookup, and resolve wraps the one a run's own payload could raise in ErrInternal; none crosses the service boundary untyped
func splitPayload(payload []byte) (h payloadHeader, body []byte, err error) {
	nl := bytes.IndexByte(payload, '\n')
	if nl < 0 || nl > maxHeaderBytes {
		return h, nil, fmt.Errorf("service: stage payload has no header line")
	}
	dec := json.NewDecoder(bytes.NewReader(payload[:nl]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&h); err != nil {
		return h, nil, err
	}
	if dec.More() {
		return h, nil, fmt.Errorf("service: trailing data after stage payload header")
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

// hasReport reports whether doc, a valid JSON document, ends in a
// non-empty "report" string member: it must end with `"}` and a
// newline, and the last unescaped quote before that closing one must
// open the string behind reportMark. No quote inside a string is
// unescaped, so walking back over the quotes that an odd number of
// backslashes precede crosses the report text alone.
func hasReport(doc []byte) bool {
	end := len(doc) - len(`"`+tailClose)
	if end < 0 || string(doc[end:]) != `"`+tailClose {
		return false
	}
	for i := end; ; {
		q := bytes.LastIndexByte(doc[:i], '"')
		if q < 0 {
			return false
		}
		bs := q
		for bs > 0 && doc[bs-1] == '\\' {
			bs--
		}
		if (q-bs)%2 == 0 {
			return q+1 < end && bytes.HasSuffix(doc[:q], []byte(reportMark))
		}
		i = bs
	}
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
// cost: on a disk hit the decode is most of what gpad does per request.
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
	open, err := (&wireTail{Cycles: h.Cycles, ElapsedMS: h.ElapsedMS, ProfileDigest: h.ProfileDigest}).encode()
	if err != nil {
		return nil, err
	}
	rest, ok := bytes.CutPrefix(doc, open[:len(open)-len(tailClose)])
	resp := &Response{Kind: Kind(s - stMeasure), Cycles: h.Cycles, ElapsedMS: h.ElapsedMS, ProfileDigest: h.ProfileDigest, doc: doc}
	switch {
	case !ok: // rejected below
	case s == stMeasure:
		ok = string(rest) == tailClose
	case s == stProfile:
		body, closed := bytes.CutSuffix(rest, []byte(tailClose))
		body, ok = bytes.CutPrefix(body, []byte(profileMark))
		name, _ := json.Marshal(h.Kernel) // a string always marshals
		// A valid profile between a fixed opening and close makes the
		// document valid.
		ok = ok && closed && bytes.HasPrefix(body, append([]byte(`{"kernel":`), name...)) && validJSON(body)
		if ok {
			sum := sha256.Sum256(body)
			ok = hex.EncodeToString(sum[:]) == h.ProfileDigest
		}
		resp.prof = &profileArtifact{kernel: h.Kernel, cycles: h.Cycles, body: body}
	default:
		// hasReport reads a valid document only.
		ok = validJSON(doc) && hasReport(doc)
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
