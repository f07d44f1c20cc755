package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"testing"
	"unicode/utf8"

	"gpa/internal/profiler"
	"gpa/internal/store"
)

// fuzzEngine counts the lazy decodes the fuzz targets trigger; it runs
// nothing.
var fuzzEngine = New(Options{Workers: 1})

// runPayloads returns the payload of every stage as real runs frame it
// — what an engine publishes to memory and puts on disk — read back
// from the store those runs filled.
func runPayloads(f *testing.F) [][]byte {
	f.Helper()
	d, err := OpenDisk(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	defer d.Close()
	e := New(Options{Workers: 1, Disk: d})
	// An advise run frames the profile it blames too.
	for _, k := range []Kind{KindMeasure, KindAdvise} {
		if _, err := e.Do(context.Background(), testRequest(f, k)); err != nil {
			f.Fatal(err)
		}
	}
	sk := keysOf(f, testRequest(f, KindAdvise))
	var payloads [][]byte
	for s := stMeasure; s <= stAdvice; s++ {
		payload, ok := d.Get(stageNames[s], sk[s])
		if !ok {
			f.Fatalf("the runs put no %s blob", stageNames[s])
		}
		payloads = append(payloads, payload)
	}
	return payloads
}

// FuzzStageEnvelopeDecode throws arbitrary payload bytes at all three
// stage-artifact decoders and at the lazy struct decode behind them:
// none may panic, and anything accepted must be internally consistent
// (the validation invariants the engine relies on before trusting a
// store-served artifact).
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
	for _, payload := range runPayloads(f) {
		f.Add(payload)
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		if ma, err := decodeMeasure(payload, store.Key{}); err == nil {
			if ma == nil || ma.Cycles < 0 {
				t.Fatal("decodeMeasure accepted an invalid artifact")
			}
		}
		if pv, err := decodeProfile(payload, store.Key{}); err == nil {
			if pv == nil || pv.prof.kernel == "" || pv.ProfileDigest == "" || !json.Valid(pv.prof.body) {
				t.Fatal("decodeProfile accepted an invalid artifact")
			}
			pa := pv.prof
			if prof, err := pa.profile(fuzzEngine); err == nil && (prof.Kernel != pa.kernel || prof.Cycles != pv.Cycles) {
				t.Fatal("a stored profile decoded to another than its header declared")
			}
		}
		if av, err := decodeAdvice(payload, store.Key{}); err == nil {
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
