package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
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
func runPayloads(f testing.TB) [][]byte {
	f.Helper()
	advise := testRequest(f, KindAdvise)
	d := storeRuns(f, testRequest(f, KindMeasure), advise)
	return storedPayloads(f, d, advise, stMeasure, stAdvice)
}

// splitPayloadRef is splitPayload spelled with the strict encoding/json
// decoder: unknown fields and trailing data rejected, but whitespace,
// any key order, case-folded and duplicate keys, null and any number
// form that decodes accepted. splitPayload accepts the subset of it
// that is canonical (canonicalHeader); checkHeader holds the two
// together.
func splitPayloadRef(payload []byte) (h payloadHeader, body []byte, err error) {
	nl := bytes.IndexByte(payload, '\n')
	if nl < 0 || nl > maxHeaderBytes {
		return h, nil, fmt.Errorf("no header line")
	}
	dec := json.NewDecoder(bytes.NewReader(payload[:nl]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&h); err != nil {
		return h, nil, err
	}
	if dec.More() {
		return h, nil, fmt.Errorf("trailing data after the header")
	}
	body = payload[nl+1:]
	if h.BodyLen != len(body) {
		return h, nil, fmt.Errorf("body is %d bytes, header declares %d", len(body), h.BodyLen)
	}
	if h.Cycles < 0 {
		return h, nil, fmt.Errorf("negative cycle count")
	}
	return h, body, nil
}

// canonicalHeader reports whether payload's header line is what
// encoding/json.Marshal writes for h.
func canonicalHeader(payload []byte, h payloadHeader) bool {
	hdr, err := json.Marshal(h)
	return err == nil && bytes.HasPrefix(payload, append(hdr, '\n'))
}

// checkHeader holds splitPayload to splitPayloadRef on payload: what it
// accepts the strict decoder accepts, as the same header and body, and
// it accepts every header the strict decoder reads that is canonical.
func checkHeader(t *testing.T, payload []byte) {
	t.Helper()
	h, body, err := splitPayload(payload)
	ref, refBody, refErr := splitPayloadRef(payload)
	if err == nil && (refErr != nil || h != ref || !bytes.Equal(body, refBody)) {
		t.Fatalf("splitPayload accepted %.200q as %+v; the strict decoder says %+v, %v", payload, h, ref, refErr)
	}
	if err != nil && refErr == nil && canonicalHeader(payload, ref) {
		t.Fatalf("splitPayload rejected the canonical %.200q: %v", payload, err)
	}
}

// hasReportRef is hasReport as a backward scan, which needs no offset
// from the validator: the document must end with `"}` and a newline,
// and the last unescaped quote before that closing one must open the
// string behind reportMark. No quote inside a string is unescaped, so
// walking back over the quotes that an odd number of backslashes
// precede crosses the report text alone. It reads valid documents only.
func hasReportRef(doc []byte) bool {
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

// decodeStageRef is what decodeStage accepts, spelled with the strict
// header decoder and a canonical-form check in place of parseHeader,
// json.Marshal in place of appendOpen and appendString,
// encoding/json.Valid in place of validJSON and bytes.LastIndex in
// place of hasReport: FuzzStageEnvelopeDecode holds decodeStage to
// accepting exactly what it accepts. An advice must end in the last
// ,"report":" of its document, a string that encoding/json finds whole
// and non-empty.
func decodeStageRef(s stageID, payload []byte) bool {
	h, doc, err := splitPayloadRef(payload)
	if err != nil || !canonicalHeader(payload, h) || (h.Kernel == "") != (s == stMeasure) || (h.ProfileDigest == "") != (s == stMeasure) {
		return false
	}
	open, err := json.Marshal(wireTail{Cycles: h.Cycles, ElapsedMS: h.ElapsedMS, ProfileDigest: h.ProfileDigest})
	if err != nil {
		return false
	}
	rest, ok := bytes.CutPrefix(doc, open[:len(open)-1])
	switch {
	case !ok:
		return false
	case s == stMeasure:
		return string(rest) == "}\n"
	case s == stProfile:
		name, _ := json.Marshal(h.Kernel)
		body := strings.TrimSuffix(strings.TrimPrefix(string(rest), `,"profile":`), "}\n")
		sum := sha256.Sum256([]byte(body))
		return len(rest) == len(body)+len(`,"profile":}`+"\n") && strings.HasPrefix(body, `{"kernel":`+string(name)) &&
			json.Valid([]byte(body)) && hex.EncodeToString(sum[:]) == h.ProfileDigest
	}
	mark := []byte(`,"report":"`)
	i := bytes.LastIndex(doc, mark)
	return json.Valid(doc) && bytes.HasSuffix(doc, []byte(`"}`+"\n")) && i >= 0 &&
		doc[i+len(mark)] != '"' && json.Valid(doc[i+len(mark)-1:len(doc)-2])
}

// stagePayload frames doc under h, failing tb if it cannot.
func stagePayload(tb testing.TB, h payloadHeader, doc string) []byte {
	tb.Helper()
	payload, err := encodePayload(h, []byte(doc))
	if err != nil {
		tb.Fatal(err)
	}
	return payload
}

// adviceSeeds are advice payloads whose report ends each way the
// backward quote scan must get right, an empty report, and a document
// that stops at the report's key.
func adviceSeeds(tb testing.TB) [][]byte {
	h := payloadHeader{ElapsedMS: 0.5, Cycles: 7, ProfileDigest: "d", Kernel: "k"}
	open := `{"cycles":7,"elapsedMs":0.5,"profileDigest":"d"`
	var seeds [][]byte
	for _, report := range []string{`GPA`, `a \"quoted\"`, `\"`, `\\`, `\\\"`, `\\\\`, ``, `\"\",\"report\":\"`} {
		seeds = append(seeds, stagePayload(tb, h, open+`,"report":"`+report+`"}`+"\n"))
	}
	seeds = append(seeds,
		stagePayload(tb, h, open+`,"report":`),
		stagePayload(tb, h, open+`,"report":"x","more":"y"}`+"\n"),
		stagePayload(tb, h, open+`,"advice":[{"report":"x"}],"report":"y" }`+"\n"),
		stagePayload(tb, h, open+`,"advice":[],"x":"\\",`+`"report":"y"}`+"\n"),
		// The last member's value as the validator's offset finds it: one
		// that is no string, one whose "report" is nested, and one after
		// an earlier "report".
		stagePayload(tb, h, open+`,"report":1}`+"\n"),
		stagePayload(tb, h, open+`,"report":["x"]}`+"\n"),
		stagePayload(tb, h, open+`,"advice":{"report":"x"}}`+"\n"),
		stagePayload(tb, h, open+`,"advice":[{"a":"b","report":"x"}]}`+"\n"),
		stagePayload(tb, h, open+`,"report":"x","advice":"y"}`+"\n"),
		stagePayload(tb, h, open+`,"report" :"x"}`+"\n"),
		stagePayload(tb, h, open+`,"report": "x"}`+"\n"),
		stagePayload(tb, h, open+`, "report":"x"}`+"\n"))
	return seeds
}

// headerSeeds are payloads whose header the strict decoder reads but
// encodePayload never writes, or writes only one way: each is a header
// that a hand parser wrong in one respect gets wrong. The bodies fit,
// so a header that passes leaves the rest of the decode to run.
func headerSeeds() [][]byte {
	u := `\` + "u" // a \u escape, spelled so that no editor folds it into its character
	measure := `{"cycles":120,"elapsedMs":1.5}` + "\n"
	var seeds [][]byte
	for _, hdr := range []string{
		`{"elapsedMs":1.5,"cycles":120,"bodyLen":31}`, // canonical
		`{"elapsedMs": 1.5,"cycles":120,"bodyLen":31}`,
		` {"elapsedMs":1.5,"cycles":120,"bodyLen":31}`,
		`{"elapsedMs":1.5,"cycles":120,"bodyLen":31} `,
		"{\"elapsedMs\":1.5,\"cycles\":120,\t\"bodyLen\":31}",
		`{"cycles":120,"elapsedMs":1.5,"bodyLen":31}`,
		`{"elapsedMs":1.5,"bodyLen":31,"cycles":120}`,
		`{"elapsedMs":1.5,"Cycles":120,"bodyLen":31}`,
		`{"ElapsedMs":1.5,"cycles":120,"bodyLen":31}`,
		`{"elapsedMs":1.5,"cycles":120,"cycles":120,"bodyLen":31}`,
		`{"elapsedMs":1.5,"cycles":7,"cycles":120,"bodyLen":31}`,
		`{"elapsedMs":1.5,"cycles":120,"bodyLen":31,"bodyLen":31}`,
		`{"elapsedMs":null,"cycles":120,"bodyLen":31}`,
		`{"elapsedMs":1.5,"cycles":120,"profileDigest":null,"bodyLen":31}`,
		`{"elapsedMs":1.5,"cycles":120,"kernel":"","bodyLen":31}`,
		`{"elapsedMs":-0,"cycles":120,"bodyLen":31}`,
		`{"elapsedMs":1.5,"cycles":-0,"bodyLen":31}`,
		`{"elapsedMs":1.5,"cycles":120,"bodyLen":-0}`,
		`{"elapsedMs":1.50,"cycles":120,"bodyLen":31}`,
		`{"elapsedMs":15e-1,"cycles":120,"bodyLen":31}`,
		`{"elapsedMs":1.5,"cycles":1E2,"bodyLen":31}`,
		`{"elapsedMs":1.5,"cycles":1.2e2,"bodyLen":31}`,
		`{"elapsedMs":1.5,"cycles":120,"bodyLen":31.0}`,
		`{"elapsedMs":1.5,"cycles":120,"bodyLen":3.1e1}`,
		`{"elapsedMs":1.5,"cycles":9223372036854775807,"bodyLen":31}`,
		`{"elapsedMs":1.5,"cycles":9223372036854775808,"bodyLen":31}`,
		`{"elapsedMs":1.5,"cycles":120,"bodyLen":18446744073709551647}`,
		`{"elapsedMs":1e999,"cycles":120,"bodyLen":31}`,
		`{"elapsedMs":1.5,"cycles":120,"bodyLen":31}{}`,
		`{"elapsedMs":1.5,"cycles":120,"bodyLen":31`,
	} {
		seeds = append(seeds, []byte(hdr+"\n"+measure))
	}
	advice := `{"cycles":7,"elapsedMs":0.5,"profileDigest":"d","report":"GPA"}` + "\n"
	for _, kernel := range []string{
		`"k"`, `"a\"b"`, `"a\\b"`, `"a\/b"`, "\"\xc3\xa9\"", `"` + u + `00e9"`, `"` + u + `00E9"`,
		`"a&b"`, `"a` + u + `0026b"`, `"a<b>"`, `"a` + u + `003cb` + u + `003e"`, `"a` + u + `003Cb"`,
		"\"a\xffb\"", `"a` + u + `fffdb"`, "\"\xef\xbf\xbd\"", `"` + u + `d83d` + u + `de00"`, `"` + u + `d83d"`,
		"\"\xe2\x80\xa8\"", `"` + u + `2028"`, `"\n"`, `"` + u + `000a"`, `"` + u + `001f"`, `"` + u + `007f"`, "\"\x7f\"",
		`""`, `null`, `7`,
	} {
		hdr := `{"elapsedMs":0.5,"cycles":7,"profileDigest":"d","kernel":` + kernel + fmt.Sprintf(`,"bodyLen":%d}`, len(advice))
		seeds = append(seeds, []byte(hdr+"\n"+advice))
	}
	return seeds
}

// TestDecodeStageChecks pins one payload per check decodeStage makes:
// each is a real payload, edited so that exactly that check fails.
func TestDecodeStageChecks(t *testing.T) {
	payloads := runPayloads(t)
	for _, p := range payloads {
		for s := stMeasure; s <= stAdvice; s++ {
			if _, err := decodeStage(s, p, store.Key{}); (err == nil) != bytes.Equal(p, payloads[s-stMeasure]) {
				t.Errorf("decodeStage(%s) of a real %s payload: %v", stageNames[s], stageNames[s], err)
			}
		}
	}
	edit := func(s stageID, f func(h *payloadHeader, doc string) string) []byte {
		h, doc, err := splitPayload(payloads[s-stMeasure])
		if err != nil {
			t.Fatal(err)
		}
		return stagePayload(t, h, f(&h, string(doc)))
	}
	prof := func(doc string) string { return doc[strings.Index(doc, `,"profile":`)+len(`,"profile":`) : len(doc)-2] }
	for name, c := range map[string]struct {
		s       stageID
		payload []byte
		ok      bool
	}{
		"measure/extra field": {stMeasure, edit(stMeasure, func(_ *payloadHeader, doc string) string {
			return strings.TrimSuffix(doc, "}\n") + `,"report":"r"}` + "\n"
		}), false},
		"measure/other cycles": {stMeasure, edit(stMeasure, func(h *payloadHeader, doc string) string { h.Cycles++; return doc }), false},
		"profile/digest": {stProfile, edit(stProfile, func(h *payloadHeader, doc string) string {
			d := strings.Repeat("0", 64)
			doc = strings.Replace(doc, h.ProfileDigest, d, 1)
			h.ProfileDigest = d
			return doc
		}), false},
		"profile/kernel": {stProfile, edit(stProfile, func(h *payloadHeader, doc string) string { h.Kernel += "x"; return doc }), false},
		"profile/not one value": {stProfile, edit(stProfile, func(h *payloadHeader, doc string) string {
			p := prof(doc)
			sum := sha256.Sum256([]byte(p + `,"x":1`))
			d := hex.EncodeToString(sum[:])
			return strings.Replace(strings.Replace(doc, p, p+`,"x":1`, 1), h.ProfileDigest, d, 1)
		}), false},
		"advice/empty report": {stAdvice, edit(stAdvice, func(_ *payloadHeader, doc string) string {
			return doc[:strings.LastIndex(doc, `,"report":"`)] + `,"report":""}` + "\n"
		}), false},
		"advice/report ends in an escaped quote": {stAdvice, edit(stAdvice, func(_ *payloadHeader, doc string) string {
			return doc[:strings.LastIndex(doc, `,"report":"`)] + `,"report":"say \"GPA\""}` + "\n"
		}), true},
		"advice/no report": {stAdvice, edit(stAdvice, func(_ *payloadHeader, doc string) string {
			return doc[:strings.LastIndex(doc, `,"report":"`)] + "}\n"
		}), false},
		"advice/unfinished": {stAdvice, edit(stAdvice, func(_ *payloadHeader, doc string) string { return doc[:len(doc)-3] }), false},
	} {
		if _, err := decodeStage(c.s, c.payload, store.Key{}); (err == nil) != c.ok {
			t.Errorf("%s: decodeStage says %v, want accepted=%v", name, err, c.ok)
		}
		if decodeStageRef(c.s, c.payload) != c.ok {
			t.Errorf("%s: decodeStageRef disagrees, want accepted=%v", name, c.ok)
		}
	}
}

// FuzzStageEnvelopeDecode throws arbitrary payload bytes at the stage
// decoder, as each stage, and at the lazy struct decode behind it: it
// may not panic, it accepts exactly what decodeStageRef does, and
// anything accepted must be internally consistent (the validation
// invariants the engine relies on before trusting a store-served
// artifact): a document that is valid JSON, opens as the header
// declares and is served as its own tail. On the way it holds the
// header parse to the strict decoder (checkHeader) and, on any valid
// body, hasReport at the validator's offset to the backward scan.
func FuzzStageEnvelopeDecode(f *testing.F) {
	f.Add([]byte(`{"elapsedMs":1.5,"cycles":120,"bodyLen":32}` + "\n" + `{"cycles":120,"elapsedMs":1.5}` + "\n"))
	f.Add([]byte(`{"elapsedMs":1.5,"cycles":120,"bodyLen":0}` + "\n"))
	prof := `{"kernel":"vecscale","cycles":9}`
	sum := sha256.Sum256([]byte(prof))
	d := hex.EncodeToString(sum[:])
	f.Add(stagePayload(f, payloadHeader{ElapsedMS: 2, Cycles: 9, ProfileDigest: d, Kernel: "vecscale"},
		`{"cycles":9,"elapsedMs":2,"profileDigest":"`+d+`","profile":`+prof+"}\n"))
	f.Add([]byte(`{}`))
	f.Add([]byte("null\n"))
	f.Add([]byte(`{"elapsedMs":0,"cycles":-1,"bodyLen":0}` + "\n"))
	f.Add([]byte(`{"elapsedMs":0,"cycles":1,"bodyLen":0}{"cycles":2}` + "\n")) // trailing header data
	f.Add([]byte(`{"elapsedMs":0,"cycles":1,"bodyLen":0,"unknown":true}` + "\n"))
	for _, payload := range append(append(adviceSeeds(f), headerSeeds()...), runPayloads(f)...) {
		f.Add(payload)
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		checkHeader(t, payload)
		body := payload[bytes.IndexByte(payload, '\n')+1:] // all of it without a header line
		if last, ok := validDoc(body); ok {
			if got, want := hasReport(body, last), hasReportRef(body); got != want {
				t.Fatalf("hasReport(%.200q) at %d = %v, the backward scan says %v", body, last, got, want)
			}
		}
		for s := stMeasure; s <= stAdvice; s++ {
			resp, err := decodeStage(s, payload, store.Key{})
			if ref := decodeStageRef(s, payload); (err == nil) != ref {
				t.Fatalf("decodeStage(%s) says %v, its reference accepted=%v", stageNames[s], err, ref)
			}
			if err != nil {
				continue
			}
			open := fmt.Sprintf(`{"cycles":%d,`, resp.Cycles)
			if resp.Kind != Kind(s-stMeasure) || resp.Cycles < 0 || !json.Valid(resp.doc) ||
				!bytes.HasPrefix(resp.doc, []byte(open)) || !bytes.Equal(resp.Tail(), resp.doc[1:]) {
				t.Fatalf("decodeStage(%s) accepted an invalid artifact", stageNames[s])
			}
			switch s {
			case stProfile:
				pa := resp.prof
				sum := sha256.Sum256(pa.body)
				if pa.kernel == "" || !json.Valid(pa.body) || hex.EncodeToString(sum[:]) != resp.ProfileDigest {
					t.Fatal("decodeStage accepted an invalid profile")
				}
				if prof, err := pa.profile(fuzzEngine); err == nil && (prof.Kernel != pa.kernel || prof.Cycles != resp.Cycles) {
					t.Fatal("a stored profile decoded to another than its header declared")
				}
			case stAdvice:
				aa := resp.adv
				if aa.kernel == "" || resp.ProfileDigest == "" {
					t.Fatal("decodeStage accepted an advice of nothing")
				}
				if advice, report, err := aa.decoded(fuzzEngine, resp.doc); err == nil && (advice.Kernel != aa.kernel || report == "") {
					t.Fatal("a stored advice decoded to no report")
				}
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
// for a shorter or longer artifact. What encodePayload and a decoded
// document's opening write, with strconv and by hand, is what
// encoding/json writes for the same values, and neither writes a value
// that has no JSON form. The body, taken as a payload of its own, holds
// the header parse to the strict decoder (checkHeader).
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
	// Each side of encoding/json's exponent cutoffs, negative zero,
	// subnormals, the extremes, and what has no JSON form.
	for _, elapsed := range []float64{1e-6, 1e-7, 9.999999999999999e-7, 1e20, 1e21, 123456789e13, -1e21, -1.5e-9,
		math.Copysign(0, -1), 5e-324, 2.2250738585072009e-308, math.SmallestNonzeroFloat64 * 3, math.MaxFloat64, -math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add(elapsed, int64(math.MinInt64), "", "", []byte(nil), uint16(0))
	}
	f.Add(0.5, int64(math.MaxInt64), "d<>&", "k\"\\\x00\x1f\x7f\xe2\x80\xa8\xe2\x80\xa9\xc3\xa9\xff", []byte(nil), uint16(3))
	for _, payload := range headerSeeds() {
		f.Add(1.0, int64(1), "", "", payload, uint16(0))
	}

	f.Fuzz(func(t *testing.T, elapsed float64, cycles int64, digest, kernel string, body []byte, cut uint16) {
		checkHeader(t, body)
		open, jsonErr := json.Marshal(wireTail{Cycles: cycles, ElapsedMS: elapsed, ProfileDigest: digest})
		want := payloadHeader{ElapsedMS: elapsed, Cycles: cycles, ProfileDigest: digest, Kernel: kernel}
		payload, err := encodePayload(want, body)
		if (err == nil) != (jsonErr == nil) {
			t.Fatalf("encodePayload of elapsedMs %v says %v, encoding/json says %v", elapsed, err, jsonErr)
		}
		if err != nil {
			return // a NaN or infinite elapsed has no JSON form: never put
		}
		if got := appendOpen(nil, cycles, elapsed, digest); !bytes.Equal(got, open[:len(open)-len("}")]) {
			t.Fatalf("appendOpen wrote %q, encoding/json %q", got, open)
		}
		if name, _ := json.Marshal(kernel); !bytes.Equal(appendString(nil, kernel), name) {
			t.Fatalf("appendString wrote %q, encoding/json %q", appendString(nil, kernel), name)
		}
		checkHeader(t, payload)
		if !utf8.ValidString(digest) || !utf8.ValidString(kernel) {
			// Invalid UTF-8 is written as U+FFFD's escape, which reads back
			// as U+FFFD, written raw: never canonical, so never read back.
			// Names reach a header out of JSON or the assembler's ASCII.
			return
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
		sum := sha256.Sum256([]byte(profileJSON))
		h := payloadHeader{ElapsedMS: elapsed, Cycles: prof.Cycles, ProfileDigest: hex.EncodeToString(sum[:]), Kernel: prof.Kernel}
		open, err := json.Marshal(wireTail{Cycles: h.Cycles, ElapsedMS: h.ElapsedMS, ProfileDigest: h.ProfileDigest})
		if err != nil {
			return
		}
		payload, err := encodePayload(h, append(open[:len(open)-1], `,"profile":`+profileJSON+"}\n"...))
		if err != nil {
			return
		}
		pv, err := decodeStage(stProfile, payload, store.Key{})
		if err != nil {
			return // decoder rejected it (no kernel name, not canonical): fine
		}
		if pv.ElapsedMS != elapsed || pv.Cycles != prof.Cycles {
			t.Fatalf("header mutated: %v, %d -> %v, %d", elapsed, prof.Cycles, pv.ElapsedMS, pv.Cycles)
		}
		if pv.ProfileDigest != h.ProfileDigest || !bytes.Equal(pv.prof.body, []byte(profileJSON)) {
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
