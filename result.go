package gpa

import (
	"bytes"
	"encoding/json"
	"fmt"

	"gpa/internal/profiler"

	adv "gpa/internal/advisor"
)

// ResultSchemaVersion identifies the structured result schema of the
// v2 API. Bump the trailing version whenever a field is added, removed,
// or changes meaning, so machine clients (dashboards, optimize-measure
// loops, multi-deployment drift checks) can dispatch on it instead of
// sniffing fields. cmd/gpad stamps it on every response body, success
// and error alike.
const ResultSchemaVersion = "gpa-result/2"

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

// MarshalIndent renders the result as indented JSON (the gpad wire
// encoding, less its trailing newline). It is the reference encoder:
// Job.EncodeResult's head + tail must reproduce it byte for byte.
func (r *Result) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// The wire encoding splits at the first field no request can change.
// Everything before it (schemaVersion … cached) is the head: ~200 bytes
// that carry the per-request trace ID and cached flag, appended by hand.
// Everything from it on (cycles … the closing brace and newline) is the
// tail: the advice, report text and profile, the same bytes for every
// request one engine response serves, encoded once by encoding/json.
const tailStart = "  \"cycles\": "

// appendHead appends the head of r's wire encoding to dst.
func (r *Result) appendHead(dst []byte) []byte {
	dst = append(dst, "{\n  \"schemaVersion\": "...)
	dst = appendJSONString(dst, r.SchemaVersion)
	dst = append(dst, ",\n  \"kernel\": "...)
	dst = appendJSONString(dst, r.Kernel)
	dst = append(dst, ",\n  \"arch\": "...)
	dst = appendJSONString(dst, r.Arch)
	dst = append(dst, ",\n  \"kind\": "...)
	dst = appendJSONString(dst, r.Kind)
	if r.TraceID != "" {
		dst = append(dst, ",\n  \"traceId\": "...)
		dst = appendJSONString(dst, r.TraceID)
	}
	if r.Key != "" {
		dst = append(dst, ",\n  \"key\": "...)
		dst = appendJSONString(dst, r.Key)
	}
	if r.Cached {
		return append(dst, ",\n  \"cached\": true,\n"...)
	}
	return append(dst, ",\n  \"cached\": false,\n"...)
}

// appendJSONString appends s as encoding/json renders a string. The
// strings a head carries (entry names, registry keys, validated trace
// IDs, hex digests) are plain ASCII in practice and are copied between
// quotes; anything else goes through encoding/json itself, so escaping
// can never disagree with the reference.
func appendJSONString(dst []byte, s string) []byte {
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
// result (nil when the job failed; read JobResult.Err instead).
func (j Job) Result(res JobResult) *Result {
	if res.Err != nil {
		return nil
	}
	out := j.resultHead(res)
	j.fillTail(&out, res)
	return &out
}

// resultHead fills the fields appendHead encodes.
func (j Job) resultHead(res JobResult) Result {
	gpu := defaultGPU
	if j.Options != nil && j.Options.GPU != nil {
		gpu = j.Options.GPU
	}
	return Result{
		SchemaVersion: ResultSchemaVersion,
		Kernel:        j.Kernel.Launch.Entry,
		Arch:          GPUName(gpu),
		Kind:          j.Kind.String(),
		Key:           res.Key,
		Cached:        res.Cached,
	}
}

// fillTail fills the fields the tail encodes.
func (j Job) fillTail(out *Result, res JobResult) {
	out.Cycles = res.Cycles
	out.ElapsedMS = res.ElapsedMS
	out.ProfileDigest = res.ProfileDigest
	if res.Report != nil {
		out.Advice = res.Report.Advice.Entries
		out.ReportText = res.Report.String()
	}
	if j.Kind == JobProfile {
		out.Profile = res.Profile
	}
}

// marshalTail renders the tail of the wire encoding of j.Result(res):
// the reference encoding of a result with only the tail's fields set,
// cut at tailStart (the empty head cannot contain the marker), plus the
// newline json.Encoder ends a value with. The slice is sized exactly,
// because it is kept for as long as the engine caches the result.
func (j Job) marshalTail(res JobResult) ([]byte, error) {
	var t Result
	j.fillTail(&t, res)
	enc, err := t.MarshalIndent()
	if err != nil {
		return nil, fmt.Errorf("gpa: encode result: %w", err)
	}
	i := bytes.Index(enc, []byte(tailStart))
	tail := make([]byte, 0, len(enc)-i+1)
	tail = append(tail, enc[i:]...)
	return append(tail, '\n'), nil
}

// EncodeResult renders j.Result(res), stamped with traceID, in the gpad
// wire encoding — the bytes of Result.MarshalIndent plus the newline
// json.Encoder appends — as two slices to be written back to back. head
// is appended to dst and is the caller's. tail is read-only: from the
// second encoding of one underlying engine response on, it is encoded
// once and memoized on that response, so every further cache hit on the
// entry shares one slice, and evicting the entry frees it. res must
// come from this engine job and carry no error.
func (j Job) EncodeResult(dst []byte, res JobResult, traceID string) (head, tail []byte, err error) {
	if res.Err != nil {
		return nil, nil, fmt.Errorf("gpa: encode result of a failed job: %w", res.Err)
	}
	if v := res.view; v != nil && v.encodes.Add(1) > 1 {
		v.tailOnce.Do(func() { v.tail, v.tailErr = j.marshalTail(res) })
		tail, err = v.tail, v.tailErr
	} else {
		// The first encoding of a response is not kept (and a hand-built
		// JobResult has no response to keep it on): see respView.
		tail, err = j.marshalTail(res)
	}
	if err != nil {
		return nil, nil, err
	}
	h := j.resultHead(res)
	h.TraceID = traceID
	return h.appendHead(dst), tail, nil
}
