package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"os"
	"strconv"
	"strings"

	"gpa"
)

// pin is one DRIFT.txt row: the simulated cycles and the 16-hex prefix
// of the profile digest for a bundled row at the default seed.
type pin struct {
	cycles int64
	digest string
}

// loadPins reads DRIFT.txt (read-only) into a map keyed by row ID.
func loadPins(path string) (map[string]pin, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	pins := map[string]pin{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		c := strings.Index(line, " cycles=")
		p := strings.Index(line, " profile=")
		if c < 0 || p < c {
			continue
		}
		cycles, err := strconv.ParseInt(strings.TrimSpace(line[c+len(" cycles="):p]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%s: bad cycles in %q", path, line)
		}
		pins[strings.TrimSpace(line[:c])] = pin{cycles: cycles, digest: strings.TrimSpace(line[p+len(" profile="):])}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(pins) == 0 {
		return nil, fmt.Errorf("%s: no rows", path)
	}
	return pins, nil
}

// scalar returns the raw bytes of the value that follows the first
// quoted key followed by a colon in body (a string without its quotes, or a bare number or
// literal), tolerating any whitespace so indented and compact encodings
// read alike. A quoted name cannot occur inside a JSON string value
// (the quotes would be escaped), so the first match is a real key, and
// the envelope's scalars precede the nested advice and profile objects.
func scalar(body, key []byte) ([]byte, bool) {
	i := bytes.Index(body, key)
	if i < 0 {
		return nil, false
	}
	i = skipSpace(body, i+len(key))
	if i >= len(body) || body[i] != ':' {
		return nil, false
	}
	i = skipSpace(body, i+1)
	if i >= len(body) {
		return nil, false
	}
	if body[i] != '"' {
		j := i
		for j < len(body) && !strings.ContainsRune(",}] \t\r\n", rune(body[j])) {
			j++
		}
		return body[i:j], true
	}
	i++
	for j := i; j < len(body); j++ {
		switch body[j] {
		case '\\':
			j++
		case '"':
			return body[i:j], true
		}
	}
	return nil, false
}

func skipSpace(body []byte, i int) int {
	for i < len(body) && (body[i] == ' ' || body[i] == '\t' || body[i] == '\n' || body[i] == '\r') {
		i++
	}
	return i
}

// The quoted keys the scan looks for, built once: the scan runs on every
// response of the client's hot path.
var (
	keyCycles    = []byte(`"cycles"`)
	keyElapsedMs = []byte(`"elapsedMs"`)
	keyCached    = []byte(`"cached"`)
	keyDigest    = []byte(`"profileDigest"`)
	keyReport    = []byte(`"report"`)
	keyProfile   = []byte(`"profile"`)
)

// envelope is what the scan reads from every single-kernel response.
type envelope struct {
	cycles     int64
	elapsedMs  float64
	cached     bool
	digest     string
	reportHash uint64
	hasReport  bool
}

var hashSeed = maphash.MakeSeed()

// scanEnvelope reads the fields every response is checked on without a
// full JSON decode: on this box the client shares two cores with gpad,
// and decoding 15 KB per response would cost the client more CPU than
// the warm server path spends producing it. Sampled responses are also
// decoded in full (see fullEvery).
func scanEnvelope(body []byte) (envelope, error) {
	var e envelope
	v, ok := scalar(body, keyCycles)
	if !ok {
		return e, fmt.Errorf("no cycles field")
	}
	var err error
	if e.cycles, err = strconv.ParseInt(string(v), 10, 64); err != nil {
		return e, fmt.Errorf("bad cycles %q", v)
	}
	if v, ok = scalar(body, keyElapsedMs); ok {
		e.elapsedMs, _ = strconv.ParseFloat(string(v), 64)
	}
	if v, ok = scalar(body, keyCached); ok {
		e.cached = string(v) == "true"
	}
	if v, ok = scalar(body, keyDigest); ok {
		e.digest = string(v)
	}
	if v, ok = scalar(body, keyReport); ok {
		e.hasReport = true
		e.reportHash = maphash.Bytes(hashSeed, v)
	}
	return e, nil
}

// wireResult is the response schema the full decode holds gpad to.
type wireResult struct {
	SchemaVersion string            `json:"schemaVersion"`
	Kernel        string            `json:"kernel"`
	Arch          string            `json:"arch"`
	Kind          string            `json:"kind"`
	Cached        bool              `json:"cached"`
	Cycles        int64             `json:"cycles"`
	ElapsedMs     float64           `json:"elapsedMs"`
	ProfileDigest string            `json:"profileDigest"`
	Advice        []json.RawMessage `json:"advice"`
	Report        string            `json:"report"`
	Profile       json.RawMessage   `json:"profile"`
	// Error is set on the entries of a batch or sweep that failed.
	Error json.RawMessage `json:"error"`
}

// validate checks one decoded result of the given kind.
func (r *wireResult) validate(kind string) error {
	switch {
	case len(r.Error) > 0:
		return fmt.Errorf("entry carries an error body: %s", r.Error)
	case !strings.HasPrefix(r.SchemaVersion, "gpa-result/"):
		return fmt.Errorf("schemaVersion %q", r.SchemaVersion)
	case r.Kind != kind:
		return fmt.Errorf("kind %q, want %q", r.Kind, kind)
	case r.Cycles <= 0:
		return fmt.Errorf("cycles %d", r.Cycles)
	case r.Kernel == "" || r.Arch == "":
		return fmt.Errorf("missing kernel or arch")
	}
	if kind != "measure" && len(r.ProfileDigest) != 64 {
		return fmt.Errorf("profileDigest %q", r.ProfileDigest)
	}
	if kind == "advise" && (r.Report == "" || len(r.Advice) == 0) {
		return fmt.Errorf("advise result without report or advice")
	}
	if kind == "profile" && len(r.Profile) == 0 {
		return fmt.Errorf("profile result without profile")
	}
	return nil
}

func (p pin) matches(cycles int64, digest string) error {
	if cycles != p.cycles || !strings.HasPrefix(digest, p.digest) {
		return fmt.Errorf("cycles=%d profile=%.16s, DRIFT.txt pins cycles=%d profile=%s",
			cycles, digest, p.cycles, p.digest)
	}
	return nil
}

// checker judges responses for one workload.
type checker struct {
	c    *corpus
	w    *workload
	pins map[string]pin
}

// fullEvery is the stride of the full JSON decode on single-kernel
// responses; batch and sweep responses are always decoded.
const fullEvery = 64

// check judges one response. seq is the request's index in its pass,
// learn is true during the populate and warm-up passes, when a learned
// slot's expectation may still be unset. It returns the scanned
// envelope (single-kernel kinds) for the slice's statistics.
func (ck *checker) check(req *request, seq int, learn bool, status int, body []byte) (envelope, error) {
	if status != 200 {
		return envelope{}, fmt.Errorf("status %d: %.200s", status, body)
	}
	if req.kind == kindBatch || req.kind == kindSweep {
		return envelope{}, ck.checkFanOut(req, body)
	}
	e, err := scanEnvelope(body)
	if err != nil {
		return e, err
	}
	if e.cycles <= 0 {
		return e, fmt.Errorf("cycles %d", e.cycles)
	}
	kind := "advise"
	if req.kind == kindColdProfile {
		kind = "profile"
		if !bytes.Contains(body, keyProfile) {
			return e, fmt.Errorf("profile response without profile")
		}
	} else if !e.hasReport {
		return e, fmt.Errorf("advise response without report")
	}
	if len(e.digest) != 64 {
		return e, fmt.Errorf("profileDigest %q", e.digest)
	}
	switch req.kind {
	case kindPinned:
		if err := ck.pins[ck.c.rows[req.row].ID()].matches(e.cycles, e.digest); err != nil {
			return e, err
		}
	case kindLearned:
		exp := &ck.w.learned[req.slot]
		switch {
		case !exp.set && learn:
			*exp = expectation{set: true, cycles: e.cycles, digest: e.digest, reportHash: e.reportHash}
		case !exp.set:
			return e, fmt.Errorf("slot %d has no first response to compare with", req.slot)
		case exp.cycles != e.cycles || exp.digest != e.digest || exp.reportHash != e.reportHash:
			return e, fmt.Errorf("slot %d differs from its first response (cycles %d vs %d, digest %.16s vs %.16s)",
				req.slot, e.cycles, exp.cycles, e.digest, exp.digest)
		}
	case kindColdAdvise, kindColdProfile:
		if e.cached && !learn {
			return e, fmt.Errorf("cold request answered from cache")
		}
	}
	if seq%fullEvery == 0 {
		var r wireResult
		if err := json.Unmarshal(body, &r); err != nil {
			return e, fmt.Errorf("decode: %w", err)
		}
		if err := r.validate(kind); err != nil {
			return e, err
		}
		if r.Cycles != e.cycles || r.ProfileDigest != e.digest {
			return e, fmt.Errorf("scan and decode disagree (cycles %d vs %d)", e.cycles, r.Cycles)
		}
	}
	return e, nil
}

// checkFanOut decodes a batch or sweep envelope: the right number of
// entries, none carrying an error body, pinned entries matching
// DRIFT.txt.
func (ck *checker) checkFanOut(req *request, body []byte) error {
	var env struct {
		SchemaVersion string       `json:"schemaVersion"`
		Results       []wireResult `json:"results"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	if len(env.Results) != req.entries {
		return fmt.Errorf("%d results, want %d", len(env.Results), req.entries)
	}
	for i := range env.Results {
		r := &env.Results[i]
		kind := "advise"
		if req.kind == kindBatch && i == 2 {
			kind = "measure"
		}
		if err := r.validate(kind); err != nil {
			return fmt.Errorf("entry %d: %w", i, err)
		}
		if row, ok := req.pinnedRows[i]; ok {
			if err := ck.pins[ck.c.rows[row].ID()].matches(r.Cycles, r.ProfileDigest); err != nil {
				return fmt.Errorf("entry %d: %w", i, err)
			}
		}
	}
	return nil
}

// rederive recomputes one cold advise response through the library
// (Kernel.Advise, no daemon, no cache) and compares cycles, profile
// digest and report text.
func (ck *checker) rederive(ctx context.Context, req *request, body []byte) error {
	var got wireResult
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	k, wl, err := ck.c.rows[req.row].Base.Build()
	if err != nil {
		return err
	}
	rep, err := k.Advise(ctx, &gpa.Options{Workload: wl, Seed: req.seed, SimSMs: 4, Parallelism: 1})
	if err != nil {
		return err
	}
	want := rep.Result(k, "", 0)
	if got.Cycles != want.Cycles || got.ProfileDigest != want.ProfileDigest || got.Report != want.ReportText {
		return fmt.Errorf("row %q seed %d: daemon cycles=%d digest=%.16s, library cycles=%d digest=%.16s, report equal=%v",
			ck.c.rows[req.row].ID(), req.seed, got.Cycles, got.ProfileDigest,
			want.Cycles, want.ProfileDigest, got.Report == want.ReportText)
	}
	return nil
}
