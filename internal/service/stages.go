package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"gpa/internal/apierr"
	"gpa/internal/arch"
	"gpa/internal/cubin"
	"gpa/internal/gpusim"
	"gpa/internal/profiler"
	"gpa/internal/sass"
	"gpa/internal/store"
	"gpa/internal/structure"

	adv "gpa/internal/advisor"
)

// stageSchema versions the per-stage artifact keys AND the blob
// payload encodings together, anchored to digestSchema so any change
// to the canonical field encoding invalidates stage artifacts exactly
// like it invalidates result-cache keys. Blobs written under another
// schema are misses by construction (the framing rejects them), never
// misreads.
const stageSchema = "gpa-stage/1+" + digestSchema

// StoreSchema is the payload-schema string an on-disk artifact store
// must be opened with to serve this build's engine.
func StoreSchema() string { return stageSchema }

// OpenDisk opens (creating if needed) an on-disk artifact store at dir
// under this build's stage schema.
func OpenDisk(dir string) (*store.Disk, error) {
	return store.Open(dir, stageSchema)
}

// stageKeys holds the per-stage content-addressed keys for one
// normalized request. The Figure 2 pipeline factors into three
// dependency tiers, each keyed by exactly the inputs that can change
// its output:
//
//	frontend: module                         → Program, Structure
//	measure/profile: module+launch+arch+sim  → cycles / sampled profile
//	advice: profile key + blamer options     → ranked advice, report
//
// Kind is deliberately excluded everywhere: a profile request and an
// advise request over the same inputs share one profile artifact,
// which is what lets a stored /v1/profile feed /v1/advise without
// re-simulation. Parallelism is excluded for the same reason it is
// excluded from the result digest — results are bit-identical at
// every level.
type stageKeys struct {
	frontend store.Key
	measure  store.Key
	profile  store.Key
	advice   store.Key
}

// stageKeys derives the per-stage keys for an already-normalized
// request. ok=false marks a request with no stable identity (workload
// without a key): it must bypass the artifact store entirely.
func (r *Request) stageKeys() (sk stageKeys, ok bool, err error) {
	if r.Workload != nil && r.WorkloadKey == "" {
		return sk, false, nil
	}
	mh := r.ModuleHash
	if mh == ([32]byte{}) {
		blob, err := cubin.Pack(r.Module)
		if err != nil {
			return sk, false, fmt.Errorf("service: stage keys: %w", err)
		}
		mh = sha256.Sum256(blob)
	}
	gh, err := gpuModelHash(r.GPU)
	if err != nil {
		return sk, false, err
	}

	// Frontend: the arch-independent half — module content only.
	var fbuf [128]byte
	fb := appendStr(fbuf[:0], "schema", stageSchema)
	fb = appendStr(fb, "stage", store.StageFrontend)
	fb = appendBytes(fb, "module", mh[:])
	sk.frontend = sha256.Sum256(fb)

	// Shared simulation identity: everything that feeds gpusim.Run.
	var sbuf [1024]byte
	sim := appendStr(sbuf[:0], "schema", stageSchema)
	sim = appendBytes(sim, "module", mh[:])
	sim = appendStr(sim, "entry", r.Launch.Entry)
	sim = appendI64(sim, "gridX", int64(r.Launch.Grid.X))
	sim = appendI64(sim, "gridY", int64(r.Launch.Grid.Y))
	sim = appendI64(sim, "gridZ", int64(r.Launch.Grid.Z))
	sim = appendI64(sim, "blockX", int64(r.Launch.Block.X))
	sim = appendI64(sim, "blockY", int64(r.Launch.Block.Y))
	sim = appendI64(sim, "blockZ", int64(r.Launch.Block.Z))
	sim = appendI64(sim, "regs", int64(r.Launch.RegsPerThread))
	sim = appendI64(sim, "shared", int64(r.Launch.SharedMemPerBlock))
	sim = appendStr(sim, "gpu", arch.KeyOf(r.GPU))
	sim = appendBytes(sim, "gpuModel", gh[:])
	sim = appendI64(sim, "simSMs", int64(r.SimSMs))
	sim = appendI64(sim, "seed", int64(r.Seed))
	sim = appendStr(sim, "workload", r.WorkloadKey)

	var mbuf [1024 + 64]byte
	mb := append(mbuf[:0], sim...)
	mb = appendStr(mb, "stage", store.StageMeasure)
	sk.measure = sha256.Sum256(mb)

	// Profile adds the sampling period. For KindMeasure requests the
	// normalized period is 0 and the profile/advice keys go unused.
	var pbuf [1024 + 64]byte
	pb := append(pbuf[:0], sim...)
	pb = appendI64(pb, "period", int64(r.SamplePeriod))
	pb = appendStr(pb, "stage", store.StageProfile)
	sk.profile = sha256.Sum256(pb)

	// Advice depends on the profile it blames plus the blamer knobs.
	var abuf [512]byte
	ab := appendStr(abuf[:0], "schema", stageSchema)
	ab = appendStr(ab, "stage", store.StageAdvice)
	ab = appendBytes(ab, "profileKey", sk.profile[:])
	ab = appendBool(ab, "noOpcodePrune", r.Blamer.DisableOpcodePrune)
	ab = appendBool(ab, "noDominatorPrune", r.Blamer.DisableDominatorPrune)
	ab = appendBool(ab, "noLatencyPrune", r.Blamer.DisableLatencyPrune)
	ab = appendBool(ab, "noIssueWeight", r.Blamer.DisableIssueWeight)
	ab = appendBool(ab, "noPathWeight", r.Blamer.DisablePathWeight)
	ab = appendI64(ab, "maxSliceSteps", int64(r.Blamer.MaxSliceSteps))
	sk.advice = sha256.Sum256(ab)

	return sk, true, nil
}

// frontendArtifact is the memory-only stage artifact for the module
// front-end: the first module seen under a content hash plus its
// lazily-built flattened program and CFG/loop structure. The
// sync.Onces make "assemble once, analyze once per module" hold even
// under a concurrent arch sweep — every worker shares one build.
// Content-equal modules are interchangeable everywhere downstream (the
// whole pipeline is a pure function of module content), so building
// against the first-seen *sass.Module is sound.
type frontendArtifact struct {
	mod *sass.Module

	progOnce sync.Once
	prog     *gpusim.Program
	progErr  error

	stOnce sync.Once
	st     *structure.Structure
	stErr  error
}

// Stage blob payloads share one framing: a header — one line of strict
// compact JSON — a newline, then exactly BodyLen raw body bytes. The
// header carries every scalar a response needs, so serving a blob
// parses some hundred bytes whatever the body weighs, and the body is
// stored in the form its consumer wants it in:
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
//gpa:lint-allow apierrlint decode errors degrade to counted store-corrupt misses inside stageLookup; they never cross the service boundary
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
	Profile       *profiler.Profile `json:"profile,omitempty"`
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

// encode renders t as gpad's reference encoder renders a result: two
// spaces of indent, the newline json.Encoder ends a value with. The
// slice is sized exactly, because a memoized tail is kept for as long
// as the engine caches the response.
func (t *wireTail) encode() ([]byte, error) {
	enc, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("service: encode result: %w", err)
	}
	doc := make([]byte, 0, len(enc)+1)
	return append(append(doc, enc...), '\n'), nil
}

// measureArtifact is the measure-stage artifact.
type measureArtifact struct {
	cycles int64
	// elapsedMS is the producing run's wall-clock cost: a store hit
	// replays it, mirroring the result cache's "cost the cache avoided"
	// contract so warm responses stay byte-identical to the cold run.
	elapsedMS float64
}

// profileArtifact is the profile-stage artifact. A run builds it around
// the profile it collected; one loaded from disk holds the profile's
// canonical JSON and decodes it when somebody first asks for the struct
// (an advise response never does).
type profileArtifact struct {
	kernel    string
	cycles    int64
	digest    string
	elapsedMS float64

	// body is nil when a run set prof; once guards the one decode.
	body []byte
	once sync.Once
	prof *profiler.Profile
	err  error
}

// adviceArtifact is the advice-stage artifact. A run builds it around
// the advice it computed; one loaded from disk holds the response tail
// it will be served as, and decodes it only for callers that want the
// struct form.
type adviceArtifact struct {
	kernel    string
	cycles    int64
	digest    string // of the profile the advice blames
	elapsedMS float64

	// doc is the stored wireTail document (nil when a run set advice and
	// report); once guards the one decode.
	doc    []byte
	once   sync.Once
	advice *adv.Advice
	// report is the rendered text, stored verbatim rather than
	// re-rendered on load, so a store-served report is byte-identical to
	// the cold run's by construction.
	report string
	err    error

	// profKey names the blamed profile in the profile stage. A run sets
	// pa outright; a loaded artifact resolves it on first use, guarded by
	// paOnce.
	profKey store.Key
	paOnce  sync.Once
	pa      *profileArtifact
	paErr   error
}

// decodeMeasure validates a measure-stage payload.
//
//gpa:lint-allow apierrlint decode errors degrade to counted store-corrupt misses inside stageLookup; they never cross the service boundary
func decodeMeasure(payload []byte) (*measureArtifact, error) {
	h, body, err := splitPayload(payload)
	if err != nil {
		return nil, err
	}
	if len(body) != 0 || h.Kernel != "" || h.ProfileDigest != "" {
		return nil, fmt.Errorf("service: measure artifact carries more than cycles")
	}
	return &measureArtifact{cycles: h.Cycles, elapsedMS: h.ElapsedMS}, nil
}

// decodeProfile validates a profile-stage payload without decoding the
// profile: the body must be one JSON value that opens with the kernel
// name the header declares, and its digest is the SHA-256 of its bytes,
// byte-identical to Profile.Digest() on the profile that produced them.
//
//gpa:lint-allow apierrlint decode errors degrade to counted store-corrupt misses inside stageLookup; they never cross the service boundary
func decodeProfile(payload []byte) (*profileArtifact, error) {
	h, body, err := splitPayload(payload)
	if err != nil {
		return nil, err
	}
	if h.Kernel == "" || h.ProfileDigest != "" {
		return nil, fmt.Errorf("service: profile artifact names no kernel")
	}
	name, _ := json.Marshal(h.Kernel) // a string always marshals
	if !bytes.HasPrefix(body, append([]byte(`{"kernel":`), name...)) || !json.Valid(body) {
		return nil, fmt.Errorf("service: profile artifact body is not a profile of %q", h.Kernel)
	}
	sum := sha256.Sum256(body)
	return &profileArtifact{
		kernel: h.Kernel, cycles: h.Cycles, elapsedMS: h.ElapsedMS,
		digest: hex.EncodeToString(sum[:]), body: body,
	}, nil
}

// decodeAdvice validates an advice-stage payload without decoding the
// advice: the body must be one JSON value that opens exactly as the
// header's scalars encode (so what the response reports and what its
// tail says cannot differ) and carries a non-empty report. profKey
// names the profile the advice blames, for the day somebody asks.
//
//gpa:lint-allow apierrlint decode errors degrade to counted store-corrupt misses inside stageLookup; they never cross the service boundary
func decodeAdvice(payload []byte, profKey store.Key) (*adviceArtifact, error) {
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
	if !ok || !bytes.HasPrefix(rest, []byte(",\n")) || !json.Valid(body) {
		return nil, fmt.Errorf("service: advice artifact body is not the tail its header declares")
	}
	if i := bytes.LastIndex(rest, []byte(reportMark)); i < 0 || rest[i+len(reportMark)] == '"' {
		return nil, fmt.Errorf("service: advice artifact has no report")
	}
	return &adviceArtifact{
		kernel: h.Kernel, cycles: h.Cycles, digest: h.ProfileDigest, elapsedMS: h.ElapsedMS,
		doc: body, profKey: profKey,
	}, nil
}

// errArtifact is the typed failure of an on-demand accessor: the store
// promised a struct it can no longer produce.
func errArtifact(format string, args ...any) error {
	return fmt.Errorf("service: %w: stored %s", apierr.ErrInternal, fmt.Sprintf(format, args...))
}

// profile returns the artifact's profile, decoding a loaded body on
// first use. The decoded profile must be the one the header described.
func (pa *profileArtifact) profile(e *Engine) (*profiler.Profile, error) {
	pa.once.Do(func() {
		if pa.body == nil {
			return
		}
		e.count(&e.stats.stageDecodes)
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
		// The digest is taken; the struct replaces the bytes.
		pa.prof, pa.body = &prof, nil
	})
	return pa.prof, pa.err
}

// decoded returns the artifact's advice and report text, decoding a
// loaded document on first use.
func (aa *adviceArtifact) decoded(e *Engine) (*adv.Advice, string, error) {
	aa.once.Do(func() {
		if aa.doc == nil {
			return
		}
		e.count(&e.stats.stageDecodes)
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
// blames, fetching a loaded artifact's from the profile stage on first
// use: serving advice never touches that stage.
func (aa *adviceArtifact) profileArtifact(e *Engine) (*profileArtifact, error) {
	aa.paOnce.Do(func() {
		if aa.pa != nil {
			return
		}
		pa := e.profileArtifactGet(aa.profKey)
		switch {
		case pa == nil:
			aa.paErr = errArtifact("profile is gone from under the advice that blames it")
		case pa.digest != aa.digest:
			aa.paErr = errArtifact("profile has digest %.16s, its advice blames %.16s", pa.digest, aa.digest)
		default:
			aa.pa = pa
		}
	})
	return aa.pa, aa.paErr
}

// stagesEnabled reports whether any artifact backend is configured.
func (e *Engine) stagesEnabled() bool {
	return e.stages != nil || e.disk != nil
}

// stageLookup resolves one stage artifact: memory first, then disk
// (decoding and re-warming memory on a disk hit). A disk blob whose
// payload fails artifact-level validation is reported corrupt and
// removed — checksum-valid framing proves the bytes survived, not that
// they decode to a well-formed artifact.
func (e *Engine) stageLookup(stage string, key store.Key, decode func([]byte) (any, error)) any {
	if v, ok := e.stages.Get(stage, key); ok {
		return v
	}
	if e.disk == nil {
		return nil
	}
	payload, ok := e.disk.Get(stage, key)
	if !ok {
		return nil
	}
	v, err := decode(payload)
	if err != nil {
		e.disk.NoteCorrupt(stage, key)
		return nil
	}
	return e.stages.Add(stage, key, v)
}

func (e *Engine) measureArtifactGet(key store.Key) *measureArtifact {
	v := e.stageLookup(store.StageMeasure, key, func(p []byte) (any, error) { return decodeMeasure(p) })
	if v == nil {
		return nil
	}
	return v.(*measureArtifact)
}

func (e *Engine) profileArtifactGet(key store.Key) *profileArtifact {
	v := e.stageLookup(store.StageProfile, key, func(p []byte) (any, error) { return decodeProfile(p) })
	if v == nil {
		return nil
	}
	return v.(*profileArtifact)
}

func (e *Engine) adviceArtifactGet(sk *stageKeys) *adviceArtifact {
	v := e.stageLookup(store.StageAdvice, sk.advice, func(p []byte) (any, error) { return decodeAdvice(p, sk.profile) })
	if v == nil {
		return nil
	}
	return v.(*adviceArtifact)
}

// stagePut publishes a freshly-computed stage artifact to the memory
// backend and, when configured, the disk backend. Encoding failures
// only cost persistence, never the request.
func (e *Engine) stagePut(stage string, key store.Key, artifact any, encode func() ([]byte, error)) {
	e.stages.Add(stage, key, artifact)
	if e.disk == nil {
		return
	}
	payload, err := encode()
	if err != nil {
		return
	}
	e.disk.Put(stage, key, payload)
}

// frontendFor returns the shared front-end artifact for the request's
// module, creating it on first sight.
func (e *Engine) frontendFor(n *Request, key store.Key) *frontendArtifact {
	if v, ok := e.stages.Get(store.StageFrontend, key); ok {
		return v.(*frontendArtifact)
	}
	return e.stages.Add(store.StageFrontend, key, &frontendArtifact{mod: n.Module}).(*frontendArtifact)
}

// programOf returns the artifact's flattened program, building it at
// most once (seeded from the request when the caller already has one —
// gpa.Kernel memoizes programs too).
func (f *frontendArtifact) programOf(seed *gpusim.Program) (*gpusim.Program, error) {
	f.progOnce.Do(func() {
		if seed != nil {
			f.prog = seed
			return
		}
		f.prog, f.progErr = gpusim.Load(f.mod)
	})
	return f.prog, f.progErr
}

// structureOf returns the artifact's program structure, running
// structure.Analyze at most once per module and counting the build.
func (e *Engine) structureOf(f *frontendArtifact) (*structure.Structure, error) {
	f.stOnce.Do(func() {
		e.count(&e.stats.structureBuilds)
		f.st, f.stErr = structure.Analyze(f.mod)
	})
	return f.st, f.stErr
}

// serveFromStore attempts to satisfy the whole request from its one
// stage artifact without running any pipeline stage. nil means the
// artifact is missing and the caller must execute. Store-served
// responses mirror the result cache's hit contract: Cached=true and
// the producing run's ElapsedMS.
func (e *Engine) serveFromStore(n *Request, key string, sk *stageKeys) *Response {
	resp := &Response{Key: key, Cached: true, Kind: n.Kind, eng: e, shared: &respShared{}}
	switch n.Kind {
	case KindMeasure:
		ma := e.measureArtifactGet(sk.measure)
		if ma == nil {
			return nil
		}
		resp.Cycles, resp.ElapsedMS = ma.cycles, ma.elapsedMS
	case KindProfile:
		pa := e.profileArtifactGet(sk.profile)
		if pa == nil {
			return nil
		}
		resp.Cycles, resp.ElapsedMS, resp.ProfileDigest = pa.cycles, pa.elapsedMS, pa.digest
		resp.prof = pa
	case KindAdvise:
		// The advice key hashes the profile key, so the advice artifact
		// alone determines the response; the profile stage is consulted
		// only if a caller asks for the Profile. Context is not
		// serializable (it is a pointer graph into the module):
		// store-served advise responses carry a nil Context.
		aa := e.adviceArtifactGet(sk)
		if aa == nil {
			return nil
		}
		resp.Cycles, resp.ElapsedMS, resp.ProfileDigest = aa.cycles, aa.elapsedMS, aa.digest
		resp.adv = aa
	}
	return resp
}
