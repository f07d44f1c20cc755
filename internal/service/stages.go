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
const stageSchema = "gpa-stage/2+" + digestSchema

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
// response parses some hundred bytes whatever the body weighs, and the
// body is kept — in memory as on disk — in the form its consumer wants
// it in:
//
//	measure: cycles, elapsedMs; no body
//	profile: cycles, elapsedMs, kernel; the body is the canonical
//	         compact profile JSON, whose SHA-256 is the profile digest
//	advice:  cycles, elapsedMs, profileDigest, kernel; the body is the
//	         reference encoding of the advise response's wireTail, so
//	         the bytes after tailOpen go onto the wire as they are
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

// wireTail is the part of a gpa-result/2 body that no request can
// change: gpa.Result's fields from "cycles" on, under the same names in
// the same order (TestEncodeResultMatchesReferenceEncoder holds the two
// together). It is defined here because the advice blob stores it.
type wireTail struct {
	Cycles        int64             `json:"cycles"`
	ElapsedMS     float64           `json:"elapsedMs"`
	ProfileDigest string            `json:"profileDigest,omitempty"`
	Advice        []adv.AdviceEntry `json:"advice,omitempty"`
	Report        string            `json:"report,omitempty"`
	// Profile is the profile's canonical compact encoding (the profile
	// payload's body): encoding/json re-indents a RawMessage in place, to
	// the bytes it would give the struct.
	Profile json.RawMessage `json:"profile,omitempty"`
}

const (
	// tailOpen is what the reference encoding of a wireTail opens with
	// and the wire tail leaves out: the per-request head stands there.
	tailOpen = "{\n"
	// tailClose ends every reference encoding.
	tailClose = "\n}\n"
	// reportMark opens the report text, the advice document's last
	// field. Nothing nested is indented this little and the text itself
	// holds no raw newline, so the mark matches the field alone.
	reportMark = ",\n  \"report\": \""
)

// lastReportMark returns bytes.LastIndex(doc, reportMark) by testing
// only the raw newlines, walking back from the end: every occurrence of
// the mark has its newline at offset 1. In an advice document the walk
// crosses the report text — which holds no raw newline — and its close.
func lastReportMark(doc []byte) int {
	for end := len(doc); ; {
		nl := bytes.LastIndexByte(doc[:end], '\n')
		if nl < 1 {
			return -1
		}
		if bytes.HasPrefix(doc[nl-1:], []byte(reportMark)) {
			return nl - 1
		}
		end = nl
	}
}

// encode renders t as gpad's reference encoder renders a result: two
// spaces of indent, the newline json.Encoder ends a value with.
func (t *wireTail) encode() ([]byte, error) {
	enc, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("service: encode result: %w", err)
	}
	return append(enc, '\n'), nil
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

// adviceArtifact is the advice-stage artifact: the response tail it is
// served as, always, and the structs for callers that want them. The
// leader's artifact is built with the advice its run computed; a shared
// one decodes its document on first use.
type adviceArtifact struct {
	kernel string
	digest string // of the profile the advice blames

	// doc is the wireTail document; advice and report are "already
	// decoded", and once guards the one decode.
	doc    []byte
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

// The stage decoders validate a payload and build the shared response it
// serves, without decoding any struct. They share one signature (the
// stage table's); only decodeAdvice has a use for profKey, and only
// Engine.publish calls them. A body's JSON validity is checked by
// validJSON, which accepts exactly what encoding/json.Valid does at a
// fraction of its cost: on a disk hit the decode is most of what gpad
// does per request.

// decodeMeasure validates a measure-stage payload.
//
//gpa:lint-allow apierrlint decode errors degrade to counted store-corrupt misses inside lookup, and resolve wraps the one a run's own payload could raise in ErrInternal; none crosses the service boundary untyped
func decodeMeasure(payload []byte, _ store.Key) (*Response, error) {
	h, body, err := splitPayload(payload)
	if err != nil {
		return nil, err
	}
	if len(body) != 0 || h.Kernel != "" || h.ProfileDigest != "" {
		return nil, fmt.Errorf("service: measure artifact carries more than cycles")
	}
	return &Response{Kind: KindMeasure, Cycles: h.Cycles, ElapsedMS: h.ElapsedMS}, nil
}

// decodeProfile validates a profile-stage payload without decoding the
// profile: the body must open with the kernel name the header declares
// and be one JSON value (checked in that order), and its digest is the
// SHA-256 of its bytes, byte-identical to Profile.Digest() on the
// profile that produced them.
//
//gpa:lint-allow apierrlint decode errors degrade to counted store-corrupt misses inside lookup, and resolve wraps the one a run's own payload could raise in ErrInternal; none crosses the service boundary untyped
func decodeProfile(payload []byte, _ store.Key) (*Response, error) {
	h, body, err := splitPayload(payload)
	if err != nil {
		return nil, err
	}
	if h.Kernel == "" || h.ProfileDigest != "" {
		return nil, fmt.Errorf("service: profile artifact names no kernel")
	}
	name, _ := json.Marshal(h.Kernel) // a string always marshals
	if !bytes.HasPrefix(body, append([]byte(`{"kernel":`), name...)) || !validJSON(body) {
		return nil, fmt.Errorf("service: profile artifact body is not a profile of %q", h.Kernel)
	}
	sum := sha256.Sum256(body)
	return &Response{
		Kind: KindProfile, Cycles: h.Cycles, ElapsedMS: h.ElapsedMS, ProfileDigest: hex.EncodeToString(sum[:]),
		prof: &profileArtifact{kernel: h.Kernel, cycles: h.Cycles, body: body},
	}, nil
}

// decodeAdvice validates an advice-stage payload without decoding the
// advice: the body must open exactly as the header's scalars encode (so
// what the response reports and what its tail says cannot differ), be
// one JSON value, and carry a non-empty report, checked in that order.
// profKey names the profile the advice blames, for the day somebody
// asks.
//
//gpa:lint-allow apierrlint decode errors degrade to counted store-corrupt misses inside lookup, and resolve wraps the one a run's own payload could raise in ErrInternal; none crosses the service boundary untyped
func decodeAdvice(payload []byte, profKey store.Key) (*Response, error) {
	h, body, err := splitPayload(payload)
	if err != nil {
		return nil, err
	}
	if h.Kernel == "" || h.ProfileDigest == "" {
		return nil, fmt.Errorf("service: advice artifact names no kernel or profile")
	}
	open, err := (&wireTail{Cycles: h.Cycles, ElapsedMS: h.ElapsedMS, ProfileDigest: h.ProfileDigest}).encode()
	if err != nil {
		return nil, err
	}
	rest, ok := bytes.CutPrefix(body, open[:len(open)-len(tailClose)])
	if !ok || !bytes.HasPrefix(rest, []byte(",\n")) || !validJSON(body) {
		return nil, fmt.Errorf("service: advice artifact body is not the tail its header declares")
	}
	// rest[i+len(reportMark)] is in range only because the body was found
	// valid above: the mark ends by opening a string, which a valid
	// document closes. Swap the two checks and a document that ends at the
	// mark panics (a FuzzStageEnvelopeDecode seed).
	if i := lastReportMark(rest); i < 0 || rest[i+len(reportMark)] == '"' {
		return nil, fmt.Errorf("service: advice artifact has no report")
	}
	return &Response{
		Kind: KindAdvise, Cycles: h.Cycles, ElapsedMS: h.ElapsedMS, ProfileDigest: h.ProfileDigest,
		adv: &adviceArtifact{kernel: h.Kernel, digest: h.ProfileDigest, doc: body, profKey: profKey},
	}, nil
}

// The stage framers encode a freshly computed response as its stage's
// payload, around the bytes the run already made: the profile body it
// hashed for the digest, the advice document it serves as its own tail.

func frameMeasure(resp *Response) ([]byte, error) {
	return encodePayload(payloadHeader{Cycles: resp.Cycles, ElapsedMS: resp.ElapsedMS}, nil)
}

func frameProfile(resp *Response) ([]byte, error) {
	return encodePayload(payloadHeader{Cycles: resp.Cycles, ElapsedMS: resp.ElapsedMS, Kernel: resp.prof.kernel}, resp.prof.body)
}

func frameAdvice(resp *Response) ([]byte, error) {
	return encodePayload(payloadHeader{
		Cycles: resp.Cycles, ElapsedMS: resp.ElapsedMS, ProfileDigest: resp.ProfileDigest, Kernel: resp.adv.kernel,
	}, resp.adv.doc)
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
func (aa *adviceArtifact) decoded(e *Engine) (*adv.Advice, string, error) {
	aa.once.Do(func() {
		if aa.advice != nil {
			return
		}
		e.n.stageDecodes.Add(1)
		var t wireTail
		if err := json.Unmarshal(aa.doc, &t); err != nil {
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
