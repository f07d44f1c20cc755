package gpa

import (
	"encoding/json"
	"fmt"

	"gpa/internal/profiler"
	"gpa/internal/service"

	adv "gpa/internal/advisor"
)

// ResultSchemaVersion identifies the structured result schema of the
// v2 API. Bump the trailing version whenever a field is added, removed,
// or changes meaning, so machine clients (dashboards, optimize-measure
// loops, multi-deployment drift checks) can dispatch on it instead of
// sniffing fields. cmd/gpad stamps it on every response body, success
// and error alike.
const ResultSchemaVersion = "gpa-result/3"

// Result is the versioned, machine-readable outcome of one pipeline
// run: the structured form of a Report that the library returns and
// cmd/gpad serves as JSON. The legacy Figure 8 text rendering rides
// along in ReportText, byte-identical to Report.String(), so v1 text
// consumers keep working while structured clients read Advice
// directly.
type Result struct {
	// SchemaVersion is always ResultSchemaVersion.
	SchemaVersion string `json:"schemaVersion"`
	// Kernel is the entry function the run simulated or analyzed.
	Kernel string `json:"kernel"`
	// Arch is the canonical registry key of the GPU model ("v100").
	Arch string `json:"arch"`
	// Kind is the pipeline stage ("measure", "profile", "advise").
	Kind string `json:"kind"`
	// TraceID is the per-request trace identifier echoed back to the
	// client (cmd/gpad stamps it from X-Request-Id or mints one).
	// Transport-level observability only: it is excluded from the cache
	// digest, every stage key, and the determinism contract — two
	// requests with different trace IDs return otherwise byte-identical
	// results. Empty for library-direct results.
	TraceID string `json:"traceId,omitempty"`
	// Key is the content-addressed cache key ("" when uncacheable).
	Key string `json:"key,omitempty"`
	// Cached is true when the result was served without a new
	// simulation (cache hit or coalesced with an in-flight duplicate).
	Cached bool `json:"cached"`
	// Cycles is the simulated kernel duration.
	Cycles int64 `json:"cycles"`
	// ElapsedMS is the wall-clock cost in milliseconds of the pipeline
	// run that produced the result; cached results report the original
	// run's cost (the time the cache avoided).
	ElapsedMS float64 `json:"elapsedMs"`
	// ProfileDigest is the profile's stable content digest: equal
	// requests digest equally across builds and deployments, which is
	// what drift checks compare.
	ProfileDigest string `json:"profileDigest,omitempty"`
	// Advice is the structured ranked advice ("advise" kind): the same
	// entries the Figure 8 text renders, machine-readable.
	Advice []adv.AdviceEntry `json:"advice,omitempty"`
	// ReportText is the legacy Figure 8-style rendering ("advise"
	// kind), byte-identical to Report.String() for the same run.
	ReportText string `json:"report,omitempty"`
	// Profile carries the raw per-PC samples when requested ("profile"
	// kind; omitted from "advise" results to keep them compact).
	Profile *profiler.Profile `json:"profile,omitempty"`
}

// MarshalIndent renders the result as indented JSON, for people to
// read. It is not the wire encoding — gpad serves the compact one, what
// json.Encoder writes and Job.EncodeResult's head + tail reproduce byte
// for byte — and no serve path calls it; json.Compact of its output is
// the wire bytes less the trailing newline.
func (r *Result) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// The wire encoding splits at the first field no request can change.
// Everything before it (schemaVersion … cached) is the head: ~200 bytes
// that carry the per-request trace ID and cached flag, appended by hand.
// Everything from it on (cycles … the closing brace and newline) is the
// tail: the advice, report text and profile, the same bytes for every
// request one engine response serves. internal/service owns it
// (service.Response.Tail): every stage stores its response's tail
// document as its payload, encoded once by the run that computed it and
// served as it is from memory and from disk.

// appendHead appends the head of r's wire encoding to dst.
func (r *Result) appendHead(dst []byte) []byte {
	dst = append(dst, `{"schemaVersion":`...)
	dst = service.AppendString(dst, r.SchemaVersion)
	dst = append(dst, `,"kernel":`...)
	dst = service.AppendString(dst, r.Kernel)
	dst = append(dst, `,"arch":`...)
	dst = service.AppendString(dst, r.Arch)
	dst = append(dst, `,"kind":`...)
	dst = service.AppendString(dst, r.Kind)
	if r.TraceID != "" {
		dst = append(dst, `,"traceId":`...)
		dst = service.AppendString(dst, r.TraceID)
	}
	if r.Key != "" {
		dst = append(dst, `,"key":`...)
		dst = service.AppendString(dst, r.Key)
	}
	if r.Cached {
		return append(dst, `,"cached":true,`...)
	}
	return append(dst, `,"cached":false,`...)
}

// Result converts a direct-API report into the versioned structured
// result. The kernel supplies launch identity, gpu the architecture
// key (nil = the model the report's profile records, else the V100
// default); elapsedMS may be zero when the caller did not time the
// run.
func (r *Report) Result(k *Kernel, gpu string, elapsedMS float64) *Result {
	if gpu == "" {
		gpu = GPUName(V100())
		if r.Profile != nil && r.Profile.GPU != "" {
			gpu = r.Profile.GPU
		}
	}
	res := &Result{
		SchemaVersion: ResultSchemaVersion,
		Kernel:        k.Launch.Entry,
		Arch:          gpu,
		Kind:          JobAdvise.String(),
		ElapsedMS:     elapsedMS,
		ReportText:    r.String(),
	}
	if r.Advice != nil {
		res.Advice = r.Advice.Entries
	}
	if r.Profile != nil {
		res.Cycles = r.Profile.Cycles
		if d, err := r.Profile.Digest(); err == nil {
			res.ProfileDigest = d
		}
	}
	return res
}

// Result converts an engine job outcome into the versioned structured
// result. It fails with the job's own error when the job failed, and
// with an error wrapping ErrInternal when the result was served from
// the artifact store and the artifact it has to decode is gone or
// malformed (see JobResult.Report).
func (j Job) Result(res JobResult) (*Result, error) {
	if res.Err != nil {
		return nil, res.Err
	}
	out := j.resultHead(res)
	out.Cycles = res.Cycles
	out.ElapsedMS = res.ElapsedMS
	out.ProfileDigest = res.ProfileDigest
	// The same fields, under the same conditions, as the tail encodes: a
	// hand-built result's Kind is the zero JobMeasure, which has only the
	// scalars.
	switch res.Kind {
	case JobAdvise:
		advice, err := res.Advice()
		if err != nil {
			return nil, err
		}
		out.Advice = advice.Entries
		out.ReportText, _ = res.Response.Report() // decoded with the advice
	case JobProfile:
		prof, err := res.Response.Profile()
		if err != nil {
			return nil, err
		}
		out.Profile = prof
	}
	return &out, nil
}

// Arch returns the canonical registry key of the architecture model the
// job runs on ("v100" unless Options selects another).
func (j Job) Arch() string {
	if j.Options != nil && j.Options.GPU != nil {
		return GPUName(j.Options.GPU)
	}
	return GPUName(defaultGPU)
}

// resultHead fills the fields appendHead encodes.
func (j Job) resultHead(res JobResult) Result {
	return Result{
		SchemaVersion: ResultSchemaVersion,
		Kernel:        j.Kernel.Launch.Entry,
		Arch:          j.Arch(),
		Kind:          j.Kind.String(),
		Key:           res.Key,
		Cached:        res.Cached,
	}
}

// EncodeResult renders j.Result(res), stamped with traceID, in the gpad
// wire encoding — the bytes json.Encoder writes for it — as two slices
// to be written back to back. head is appended to dst and is the
// caller's. tail comes from the engine response behind res
// (service.Response.Tail) and is read-only: it is the stage artifact's
// own bytes, shared by every hit on the entry and freed when the entry
// is evicted. Nothing is encoded but the head, and no stored artifact
// is decoded. res must come from this engine job and carry no error.
func (j Job) EncodeResult(dst []byte, res JobResult, traceID string) (head, tail []byte, err error) {
	if res.Err != nil {
		return nil, nil, fmt.Errorf("gpa: encode result of a failed job: %w", res.Err)
	}
	if tail = res.Tail(); tail == nil {
		return nil, nil, fmt.Errorf("gpa: %w: encode result: not an engine result", ErrInternal)
	}
	h := j.resultHead(res)
	h.TraceID = traceID
	return h.appendHead(dst), tail, nil
}
