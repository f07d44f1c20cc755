package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"unicode/utf8"

	"gpa/internal/profiler"
	"gpa/internal/store"
)

// fuzzEngine counts the lazy decodes the fuzz targets trigger; it runs
// nothing.
var fuzzEngine = New(Options{Workers: 1})

// storeRuns runs reqs through one engine over a fresh store and returns
// the store, open until the test ends.
func storeRuns(tb testing.TB, reqs ...*Request) *store.Disk {
	tb.Helper()
	d, err := OpenDisk(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { d.Close() })
	e := New(Options{Workers: 1, Store: d})
	for _, r := range reqs {
		if _, err := e.Do(context.Background(), r); err != nil {
			tb.Fatal(err)
		}
	}
	return d
}

// storedPayloads returns the payloads of stages from through to that d
// holds under r's keys: what an engine publishes to memory and puts on
// disk, as real runs frame it.
func storedPayloads(tb testing.TB, d *store.Disk, r *Request, from, to stageID) [][]byte {
	tb.Helper()
	sk := keysOf(tb, r)
	var payloads [][]byte
	for s := from; s <= to; s++ {
		payload, ok := d.Get(stageNames[s], sk[s])
		if !ok {
			tb.Fatalf("the runs put no %s blob", stageNames[s])
		}
		payloads = append(payloads, payload)
	}
	return payloads
}

// runPayloads returns the payload of every stage, read back from the
// store a measure run and an advise run filled (an advise run frames the
// profile it blames too).
func runPayloads(f *testing.F) [][]byte {
	f.Helper()
	advise := testRequest(f, KindAdvise)
	d := storeRuns(f, testRequest(f, KindMeasure), advise)
	return storedPayloads(f, d, advise, stMeasure, stAdvice)
}

// decodeProfileRef and decodeAdviceRef are the stage decoders as they
// were before validJSON and lastReportMark: encoding/json.Valid and
// bytes.LastIndex. FuzzStageEnvelopeDecode holds the decoders to
// accepting exactly what these accept.
func decodeProfileRef(payload []byte, _ store.Key) (*Response, error) {
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
	return &Response{
		Kind: KindProfile, Cycles: h.Cycles, ElapsedMS: h.ElapsedMS, ProfileDigest: hex.EncodeToString(sum[:]),
		prof: &profileArtifact{kernel: h.Kernel, cycles: h.Cycles, body: body},
	}, nil
}

func decodeAdviceRef(payload []byte, profKey store.Key) (*Response, error) {
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
	return &Response{
		Kind: KindAdvise, Cycles: h.Cycles, ElapsedMS: h.ElapsedMS, ProfileDigest: h.ProfileDigest,
		adv: &adviceArtifact{kernel: h.Kernel, digest: h.ProfileDigest, doc: body, profKey: profKey},
	}, nil
}

// FuzzStageEnvelopeDecode throws arbitrary payload bytes at all three
// stage-artifact decoders and at the lazy struct decode behind them:
// none may panic, the profile and advice decoders accept exactly what
// their references do, and anything accepted must be internally
// consistent (the validation invariants the engine relies on before
// trusting a store-served artifact).
func FuzzStageEnvelopeDecode(f *testing.F) {
	f.Add([]byte(`{"elapsedMs":1.5,"cycles":120,"bodyLen":0}` + "\n"))
	f.Add([]byte(`{"elapsedMs":2,"cycles":9,"kernel":"vecscale","bodyLen":32}` + "\n" + `{"kernel":"vecscale","cycles":9}`))
	f.Add([]byte(`{"elapsedMs":0.5,"cycles":7,"profileDigest":"d","kernel":"k","bodyLen":76}` + "\n" +
		"{\n  \"cycles\": 7,\n  \"elapsedMs\": 0.5,\n  \"profileDigest\": \"d\",\n  \"report\": \"GPA\"\n}\n"))
	f.Add([]byte(`{}`))
	f.Add([]byte("null\n"))
	f.Add([]byte(`{"elapsedMs":0,"cycles":-1,"bodyLen":0}` + "\n"))
	f.Add([]byte(`{"elapsedMs":0,"cycles":1,"bodyLen":0}{"cycles":2}` + "\n")) // trailing header data
	f.Add([]byte(`{"elapsedMs":0,"cycles":1,"bodyLen":0,"unknown":true}` + "\n"))
	// An advice document that ends exactly at the report mark: the report
	// check indexes past the mark, so run before validity it panics.
	h := payloadHeader{ElapsedMS: 0.5, Cycles: 7, ProfileDigest: "d", Kernel: "k"}
	open, err := (&wireTail{Cycles: h.Cycles, ElapsedMS: h.ElapsedMS, ProfileDigest: h.ProfileDigest}).encode()
	if err != nil {
		f.Fatal(err)
	}
	atMark, err := encodePayload(h, append(open[:len(open)-len(tailClose):len(open)-len(tailClose)], reportMark...))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(atMark)
	for _, payload := range runPayloads(f) {
		f.Add(payload)
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		if ma, err := decodeMeasure(payload, store.Key{}); err == nil {
			if ma == nil || ma.Cycles < 0 {
				t.Fatal("decodeMeasure accepted an invalid artifact")
			}
		}
		_, errRef := decodeProfileRef(payload, store.Key{})
		pv, err := decodeProfile(payload, store.Key{})
		if (err == nil) != (errRef == nil) {
			t.Fatalf("decodeProfile says %v, its reference %v", err, errRef)
		}
		if err == nil {
			if pv == nil || pv.prof.kernel == "" || pv.ProfileDigest == "" || !json.Valid(pv.prof.body) {
				t.Fatal("decodeProfile accepted an invalid artifact")
			}
			pa := pv.prof
			if prof, err := pa.profile(fuzzEngine); err == nil && (prof.Kernel != pa.kernel || prof.Cycles != pv.Cycles) {
				t.Fatal("a stored profile decoded to another than its header declared")
			}
		}
		_, errRef = decodeAdviceRef(payload, store.Key{})
		av, err := decodeAdvice(payload, store.Key{})
		if (err == nil) != (errRef == nil) {
			t.Fatalf("decodeAdvice says %v, its reference %v", err, errRef)
		}
		if err == nil {
			if av == nil || av.adv.kernel == "" || av.ProfileDigest == "" || !json.Valid(av.adv.doc) || !bytes.HasPrefix(av.adv.doc, []byte(tailOpen+"  \"cycles\": ")) {
				t.Fatal("decodeAdvice accepted an invalid artifact")
			}
			aa := av.adv
			if advice, report, err := aa.decoded(fuzzEngine); err == nil && (advice.Kernel != aa.kernel || report == "") {
				t.Fatal("a stored advice decoded to no report")
			}
		}
	})
}

// FuzzValidJSON holds validJSON to encoding/json.Valid on any input. The
// seeds are the real stage bodies and every edge of the grammar: each
// is one that a validator wrong in one respect — a control byte let
// through, a leading zero, a string tail left unchecked, one nesting
// level too many — gets wrong.
func FuzzValidJSON(f *testing.F) {
	for _, payload := range runPayloads(f) {
		_, body, err := splitPayload(payload)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, n := range []int{maxNesting, maxNesting + 1} {
		f.Add([]byte(strings.Repeat("[", n) + strings.Repeat("]", n)))
		f.Add([]byte(strings.Repeat("[", n) + "0" + strings.Repeat("]", n)))
		f.Add([]byte(strings.Repeat(`{"a":`, n-1) + "{}" + strings.Repeat("}", n-1)))
		f.Add([]byte(strings.Repeat(`{"a":`, n) + "0" + strings.Repeat("}", n)))
		f.Add([]byte(strings.Repeat(`[{"a":`, n/2) + "[]" + strings.Repeat("}]", n/2)))
	}
	u := `\` + "u" // a \u escape, spelled so that no editor folds it into its character
	for _, s := range []string{
		// Whitespace, and nothing.
		"", " ", " \t\r\n", "\v", "\f0", " 0 ", "\xc2\xa00", // the last a no-break space
		// Literals.
		"true", "false", "null", "tru", "fals", "nul", "trUe", "truex", "nulll", "[true,false,null]",
		// Numbers.
		"-", "-0", "01", "1.", "1e", "1E+9", "0", "-01", "00", "[01]", `{"a":01}`, "1.5e-3", ".5", "+1", "1e+",
		"--1", "0x10", "1 2", "[-]", "[1.]", "[1e]", "-0.0e0", "1.e5", "0e", "0E-0", "123456789012345678901234567890",
		// Escapes, whole and cut short.
		`"\b\f\n\r\t\\\/\""`, `"` + u + "00e9" + u + "D83D" + u + "DE00" + u + "ABCD" + u + `abcd"`,
		`"\u"`, `"\u0"`, `"\u00"`, `"\u000"`, `"\u`, `"\u1`, `"\u12`, `"\u123`, `"` + u + "1234",
		`"\`, `"\x"`, `"\U0041"`, `"\u00G0"`, `"\u00g0"`, `"\'"`, `"\a"`,
		// Raw bytes: control bytes are not string bytes, invalid UTF-8 is.
		"\"\x00\"", "\"a\tb\"", "\"a\nb\"", "\"\x1f\"", "\"\x7f\"", "\" \"", "\"\xff\"", "\"\xc3\x28\"", "\xff", "\x00",
		"[1,\x0b2]", "\"abc",
		// Structure.
		"{}", "[]", " { } ", "[[]]", `{"a":1,}`, "[1,]", "[,1]", `{"a" 1}`, "{1:2}", `{"a":1 "b":2}`, "[1 2]", "]", "}",
		"[}", "{]", `{"a":}`, `{"a"}`, "{,}", "[[]", "[]]", `{"a":[1,{"b":null}],"c":"d"}`, `"a" "b"`, "{}{}", "[] x",
		`{"a":1,"a":2}`, `{"":""}`, `{ "a" : [ 1 , 2 ] }`,
	} {
		f.Add([]byte(s))
	}
	// A string's bytes go a word at a time, then one at a time: put the
	// byte that matters at every offset across two words.
	for off := 0; off <= 17; off++ {
		pad := strings.Repeat("a", off)
		for _, s := range []string{
			`"` + pad + `"`,
			`"` + pad + "\x1f" + `"`,
			`"` + pad + "\x01bcdefghijkl" + `"`,
			`"` + pad + `\"` + `"`, // an escaped quote, straddling a word boundary at some offset
			`"` + pad + `\\` + `"`,
			`"` + pad + "\xc3\xa9" + `"`,
			`"` + pad + `\q` + `"`,
			`"` + pad,
			`["` + pad + `","` + pad + `"]`,
		} {
			f.Add([]byte(s))
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if got, want := validJSON(data), json.Valid(data); got != want {
			t.Fatalf("validJSON(%.200q) = %v, encoding/json.Valid says %v", data, got, want)
		}
	})
}

// FuzzStagePayloadFraming pins the framing every stage payload shares:
// what encodePayload frames, splitPayload returns — the same header,
// the same body bytes, aliased, not copied — and no other length of the
// same bytes is accepted, so a torn or padded blob can never be taken
// for a shorter or longer artifact.
func FuzzStagePayloadFraming(f *testing.F) {
	f.Add(1.25, int64(1280), "", "", []byte(nil), uint16(7))
	f.Add(0.0, int64(9), "", "vecscale", []byte(`{"kernel":"vecscale","cycles":9}`), uint16(60))
	for _, payload := range runPayloads(f) {
		h, body, err := splitPayload(payload)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(h.ElapsedMS, h.Cycles, h.ProfileDigest, h.Kernel, body, uint16(len(payload)/2))
	}

	f.Fuzz(func(t *testing.T, elapsed float64, cycles int64, digest, kernel string, body []byte, cut uint16) {
		if !utf8.ValidString(digest) || !utf8.ValidString(kernel) {
			return // encoding/json would rewrite them; names reach a header out of JSON or the assembler's ASCII
		}
		want := payloadHeader{ElapsedMS: elapsed, Cycles: cycles, ProfileDigest: digest, Kernel: kernel}
		payload, err := encodePayload(want, body)
		if err != nil {
			return // a NaN or infinite elapsed has no JSON form: never put
		}
		h, got, err := splitPayload(payload)
		headerLen := len(payload) - len(body) - 1
		if cycles < 0 || headerLen > maxHeaderBytes {
			if err == nil {
				t.Fatalf("accepted a payload of %d cycles under a %d-byte header", cycles, headerLen)
			}
			return
		}
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		want.BodyLen = len(body)
		if h != want {
			t.Fatalf("header mutated: %+v -> %+v", want, h)
		}
		if !bytes.Equal(got, body) || (len(body) > 0 && &got[0] != &payload[headerLen+1]) {
			t.Fatal("body mutated or copied")
		}
		if n := int(cut) % len(payload); n < len(payload) {
			if _, _, err := splitPayload(payload[:n]); err == nil {
				t.Fatalf("accepted the payload torn at %d of %d bytes", n, len(payload))
			}
		}
		if _, _, err := splitPayload(append(payload[:len(payload):len(payload)], 'x')); err == nil {
			t.Fatal("accepted the payload with a byte appended")
		}
	})
}

// FuzzProfileEnvelopeRoundTrip pins the digest-stability contract the
// profile stage is built on: for any profile JSON the payload carries,
// a decode returns a digest equal to the SHA-256 of those exact bytes,
// whatever the later struct decode makes of them.
func FuzzProfileEnvelopeRoundTrip(f *testing.F) {
	f.Add(`{"kernel":"vecscale","cycles":1280,"totalSamples":20}`, 1.25)
	f.Add(`{"kernel":"k"}`, 0.0)

	f.Fuzz(func(t *testing.T, profileJSON string, elapsed float64) {
		var prof profiler.Profile
		if json.Unmarshal([]byte(profileJSON), &prof) != nil {
			return // not a profile: nothing would have put it
		}
		payload, err := encodePayload(payloadHeader{ElapsedMS: elapsed, Cycles: prof.Cycles, Kernel: prof.Kernel}, []byte(profileJSON))
		if err != nil {
			return
		}
		pv, err := decodeProfile(payload, store.Key{})
		if err != nil {
			return // decoder rejected it (no kernel name, not canonical): fine
		}
		if pv.ElapsedMS != elapsed || pv.Cycles != prof.Cycles {
			t.Fatalf("header mutated: %v, %d -> %v, %d", elapsed, prof.Cycles, pv.ElapsedMS, pv.Cycles)
		}
		sum := sha256.Sum256([]byte(profileJSON))
		if pv.ProfileDigest != hex.EncodeToString(sum[:]) {
			t.Fatal("digest is not the SHA-256 of the stored profile bytes")
		}
		if got, err := pv.prof.profile(fuzzEngine); err != nil || got.Kernel != prof.Kernel {
			t.Fatalf("accepted profile does not decode back: %v", err)
		}
	})
}

// parseFields decodes the labeled, length-prefixed field encoding that
// every digest and stage key is built from (appendBytes framing). It
// is the test-side inverse used to prove the encoding is injective.
func parseFields(b []byte) ([][2][]byte, bool) {
	var fields [][2][]byte
	for len(b) > 0 {
		if len(b) < 8 {
			return nil, false
		}
		ll := binary.LittleEndian.Uint64(b)
		b = b[8:]
		if uint64(len(b)) < ll {
			return nil, false
		}
		label := b[:ll]
		b = b[ll:]
		if len(b) < 8 {
			return nil, false
		}
		vl := binary.LittleEndian.Uint64(b)
		b = b[8:]
		if uint64(len(b)) < vl {
			return nil, false
		}
		fields = append(fields, [2][]byte{label, b[:vl]})
		b = b[vl:]
	}
	return fields, true
}

// FuzzDigestFieldCanonicalization proves the digest field framing is
// injective: any two (label, value) pairs encode to bytes that parse
// back to exactly those pairs, so adjacent fields can never collide by
// concatenation (the property the whole content-addressing scheme
// rests on).
func FuzzDigestFieldCanonicalization(f *testing.F) {
	f.Add("module", []byte{1, 2, 3}, "entry", []byte("vecscale"))
	f.Add("", []byte{}, "", []byte{})
	f.Add("a", []byte("bc"), "ab", []byte("c")) // classic concatenation collision
	f.Add("schema", []byte(stageSchema), "stage", []byte("profile"))

	f.Fuzz(func(t *testing.T, label1 string, v1 []byte, label2 string, v2 []byte) {
		b := appendBytes(nil, label1, v1)
		b = appendBytes(b, label2, v2)
		fields, ok := parseFields(b)
		if !ok {
			t.Fatal("encoding of two fields failed to parse")
		}
		if len(fields) != 2 {
			t.Fatalf("parsed %d fields, want 2", len(fields))
		}
		if string(fields[0][0]) != label1 || string(fields[0][1]) != string(v1) {
			t.Fatalf("field 1 mutated: %q=%q", fields[0][0], fields[0][1])
		}
		if string(fields[1][0]) != label2 || string(fields[1][1]) != string(v2) {
			t.Fatalf("field 2 mutated: %q=%q", fields[1][0], fields[1][1])
		}
	})
}
