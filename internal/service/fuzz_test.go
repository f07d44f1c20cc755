package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"

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
// disk, as real runs encode it.
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
// store a measure run and an advise run filled (an advise run stores the
// profile it blames too).
func runPayloads(f testing.TB) [][]byte {
	f.Helper()
	advise := testRequest(f, KindAdvise)
	d := storeRuns(f, testRequest(f, KindMeasure), advise)
	return storedPayloads(f, d, advise, stMeasure, stAdvice)
}

// openRef is parseOpen spelled with the strict encoding/json decoder:
// it reads the opening's tokens as encoding/json reads them — any
// whitespace, any number form that decodes, any escape — and accepts
// them only if json.Marshal writes exactly those bytes for the values
// and the digest needs no escape. n is the opening's length.
func openRef(doc []byte) (cycles int64, elapsed float64, digest string, n int, ok bool) {
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	next := func() json.Token {
		tok, err := dec.Token()
		if err != nil {
			return nil
		}
		return tok
	}
	if next() != json.Delim('{') || next() != "cycles" {
		return 0, 0, "", 0, false
	}
	c, _ := next().(json.Number)
	if next() != "elapsedMs" {
		return 0, 0, "", 0, false
	}
	e, _ := next().(json.Number)
	n = int(dec.InputOffset())
	cycles, cErr := strconv.ParseInt(string(c), 10, 64)
	elapsed, eErr := strconv.ParseFloat(string(e), 64)
	if next() == "profileDigest" {
		if d, isString := next().(string); isString {
			digest, n = d, int(dec.InputOffset())
		}
	}
	open, err := json.Marshal(wireTail{Cycles: cycles, ElapsedMS: elapsed, ProfileDigest: digest})
	quoted, _ := json.Marshal(digest)
	ok = cErr == nil && eErr == nil && err == nil && string(doc[:n]) == string(open[:len(open)-1]) &&
		(digest == "" || string(quoted) == `"`+digest+`"`)
	return cycles, elapsed, digest, n, ok
}

// checkOpen holds parseOpen to openRef on doc: an opening the strict
// decoder accepts, parseOpen reads as the same values and length, and
// what parseOpen accepts is what json.Marshal writes for the values it
// returns. (Where the strict decoder finds a spaced or escaped digest,
// parseOpen reads a shorter opening without one, which no stage accepts
// a document of; FuzzStageEnvelopeDecode holds the whole decode to
// decodeStageRef.)
func checkOpen(t *testing.T, doc []byte) {
	t.Helper()
	cycles, elapsed, digest, rest, ok := parseOpen(doc)
	if ok {
		open, err := json.Marshal(wireTail{Cycles: cycles, ElapsedMS: elapsed, ProfileDigest: digest})
		if err != nil || string(doc[:len(doc)-len(rest)]) != string(open[:len(open)-1]) {
			t.Fatalf("parseOpen read %.200q as %d, %v, %q; encoding/json writes %q for them (%v)", doc, cycles, elapsed, digest, open, err)
		}
	}
	refCycles, refElapsed, refDigest, n, refOK := openRef(doc)
	if refOK && (!ok || cycles != refCycles || math.Float64bits(elapsed) != math.Float64bits(refElapsed) ||
		digest != refDigest || len(doc)-len(rest) != n) {
		t.Fatalf("parseOpen read %.200q as %d, %v, %q, %d bytes (%v); the strict decoder says %d, %v, %q, %d bytes",
			doc, cycles, elapsed, digest, len(doc)-len(rest), ok, refCycles, refElapsed, refDigest, n)
	}
}

// decodeStageRef is what decodeStage accepts, spelled with the strict
// decoder and a canonical-form check in place of parseOpen (openRef) and
// json.Marshal in place of AppendString: FuzzStageEnvelopeDecode holds
// decodeStage to accepting exactly what it accepts. Past the opening it
// reads the fixed bytes of each stage alone — a measure's rest is the
// close, a profile's opens its profile of kernel and ends in the close,
// an advice's ends in a string and the close — because the store frame's
// checksum, not the decoder, vouches for the bytes between.
func decodeStageRef(s stageID, doc []byte, kernel string) bool {
	cycles, _, digest, n, ok := openRef(doc)
	if !ok || cycles < 0 || (digest == "") != (s == stMeasure) {
		return false
	}
	rest := string(doc[n:])
	switch s {
	case stMeasure:
		return rest == "}\n"
	case stProfile:
		name, _ := json.Marshal(kernel)
		open := `,"profile":{"kernel":` + string(name)
		return strings.HasPrefix(rest, open) && strings.HasSuffix(rest, "}\n") && len(rest) >= len(open)+len("}\n")
	}
	return strings.HasSuffix(rest, `"}`+"\n")
}

// adviceSeeds are advice documents whose report ends each way a check
// of the document's closing bytes must get right, an empty report, and
// a document that stops at the report's key.
func adviceSeeds() [][]byte {
	open := `{"cycles":7,"elapsedMs":0.5,"profileDigest":"d"`
	var seeds [][]byte
	for _, report := range []string{`GPA`, `a \"quoted\"`, `\"`, `\\`, `\\\"`, `\\\\`, ``, `\"\",\"report\":\"`} {
		seeds = append(seeds, []byte(open+`,"report":"`+report+`"}`+"\n"))
	}
	for _, rest := range []string{
		`,"report":`,
		`,"report":"x","more":"y"}` + "\n",
		`,"advice":[{"report":"x"}],"report":"y" }` + "\n",
		`,"advice":[],"x":"\\",` + `"report":"y"}` + "\n",
		// A last member whose value is no string, one whose "report" is
		// nested, and one after an earlier "report".
		`,"report":1}` + "\n",
		`,"report":["x"]}` + "\n",
		`,"advice":{"report":"x"}}` + "\n",
		`,"advice":[{"a":"b","report":"x"}]}` + "\n",
		`,"report":"x","advice":"y"}` + "\n",
		`,"report" :"x"}` + "\n",
		`,"report": "x"}` + "\n",
		`, "report":"x"}` + "\n",
	} {
		seeds = append(seeds, []byte(open+rest))
	}
	return seeds
}

// openingSeeds are documents whose opening the strict decoder reads but
// no run writes, or writes only one way: each is an opening that a hand
// parser wrong in one respect gets wrong. The rest of each document
// fits, so an opening that passes leaves the rest of the decode to run.
func openingSeeds() [][]byte {
	u := `\` + "u" // a \u escape, spelled so that no editor folds it into its character
	var seeds [][]byte
	for _, measure := range []string{
		`{"cycles":120,"elapsedMs":1.5}`, // canonical
		`{"cycles": 120,"elapsedMs":1.5}`,
		` {"cycles":120,"elapsedMs":1.5}`,
		`{"cycles":120,"elapsedMs":1.5} `,
		"{\"cycles\":120,\t\"elapsedMs\":1.5}",
		`{"elapsedMs":1.5,"cycles":120}`,
		`{"Cycles":120,"elapsedMs":1.5}`,
		`{"cycles":120,"ElapsedMs":1.5}`,
		`{"cycles":120,"cycles":120,"elapsedMs":1.5}`,
		`{"cycles":7,"cycles":120,"elapsedMs":1.5}`,
		`{"cycles":120,"elapsedMs":1.5,"elapsedMs":1.5}`,
		`{"cycles":null,"elapsedMs":1.5}`,
		`{"cycles":120,"elapsedMs":null}`,
		`{"cycles":120,"elapsedMs":1.5,"profileDigest":null}`,
		`{"cycles":120,"elapsedMs":1.5,"profileDigest":""}`,
		`{"cycles":120,"elapsedMs":-0}`,
		`{"cycles":-0,"elapsedMs":1.5}`,
		`{"cycles":120,"elapsedMs":1.50}`,
		`{"cycles":120,"elapsedMs":15e-1}`,
		`{"cycles":1E2,"elapsedMs":1.5}`,
		`{"cycles":1.2e2,"elapsedMs":1.5}`,
		`{"cycles":120.0,"elapsedMs":1.5}`,
		`{"cycles":9223372036854775807,"elapsedMs":1.5}`,
		`{"cycles":9223372036854775808,"elapsedMs":1.5}`,
		`{"cycles":18446744073709551736,"elapsedMs":1.5}`,
		`{"cycles":120,"elapsedMs":1e999}`,
		`{"cycles":120,"elapsedMs":1e-7}`,
		`{"cycles":120,"elapsedMs":1e-07}`,
		// The longest number a run writes, and one digit more.
		`{"cycles":120,"elapsedMs":-0.0000012345678901234567}`,
		`{"cycles":120,"elapsedMs":-0.00000123456789012345678}`,
		`{"cycles":120,"elapsedMs":1.5}{}`,
		`{"cycles":120,"elapsedMs":1.5`,
	} {
		seeds = append(seeds, []byte(measure+"\n"))
	}
	for _, digest := range []string{
		`"d"`, `"a\"b"`, `"a\\b"`, `"a\/b"`, "\"\xc3\xa9\"", `"` + u + `00e9"`, `"` + u + `00E9"`,
		`"a&b"`, `"a` + u + `0026b"`, `"a<b>"`, `"a` + u + `003cb` + u + `003e"`, `"a` + u + `003Cb"`,
		"\"a\xffb\"", `"a` + u + `fffdb"`, "\"\xef\xbf\xbd\"", `"` + u + `d83d` + u + `de00"`, `"` + u + `d83d"`,
		"\"\xe2\x80\xa8\"", `"` + u + `2028"`, `"\n"`, `"` + u + `000a"`, `"` + u + `001f"`, `"` + u + `007f"`, "\"\x7f\"",
		`""`, `null`, `7`,
	} {
		seeds = append(seeds, []byte(`{"cycles":7,"elapsedMs":0.5,"profileDigest":`+digest+`,"report":"GPA"}`+"\n"))
	}
	return seeds
}

// TestDecodeStageChecks pins one payload per check decodeStage makes:
// each is a real payload, edited — or decoded under another entry — so
// that exactly that check fails.
func TestDecodeStageChecks(t *testing.T) {
	payloads := runPayloads(t)
	kernel := testRequest(t, KindAdvise).Launch.Entry
	for _, p := range payloads {
		for s := stMeasure; s <= stAdvice; s++ {
			if _, err := decodeStage(s, p, kernel); (err == nil) != bytes.Equal(p, payloads[s-stMeasure]) {
				t.Errorf("decodeStage(%s) of a real %s payload: %v", stageNames[s], stageNames[s], err)
			}
		}
	}
	edit := func(s stageID, f func(doc string) string) []byte { return []byte(f(string(payloads[s-stMeasure]))) }
	for name, c := range map[string]struct {
		s       stageID
		payload []byte
		kernel  string
		ok      bool
	}{
		"measure/extra field": {stMeasure, edit(stMeasure, func(doc string) string {
			return strings.TrimSuffix(doc, "}\n") + `,"report":"r"}` + "\n"
		}), kernel, false},
		"measure/non-canonical opening": {stMeasure, edit(stMeasure, func(doc string) string {
			return strings.Replace(doc, `"cycles":`, `"cycles": `, 1)
		}), kernel, false},
		"profile/kernel": {stProfile, payloads[stProfile-stMeasure], kernel + "x", false},
		"advice/report ends in an escaped quote": {stAdvice, edit(stAdvice, func(doc string) string {
			return doc[:strings.LastIndex(doc, `,"report":"`)] + `,"report":"say \"GPA\""}` + "\n"
		}), kernel, true},
		"advice/no report": {stAdvice, edit(stAdvice, func(doc string) string {
			return doc[:strings.LastIndex(doc, `,"report":"`)] + "}\n"
		}), kernel, false},
		"advice/unfinished": {stAdvice, edit(stAdvice, func(doc string) string { return doc[:len(doc)-3] }), kernel, false},
	} {
		if _, err := decodeStage(c.s, c.payload, c.kernel); (err == nil) != c.ok {
			t.Errorf("%s: decodeStage says %v, want accepted=%v", name, err, c.ok)
		}
		if decodeStageRef(c.s, c.payload, c.kernel) != c.ok {
			t.Errorf("%s: decodeStageRef disagrees, want accepted=%v", name, c.ok)
		}
	}
}

// FuzzStageEnvelopeDecode throws arbitrary documents at the stage
// decoder, as each stage under an arbitrary entry, and at the lazy
// struct decode behind it: it may not panic, it accepts exactly what
// decodeStageRef does, and anything accepted must be consistent with
// its opening: the response reports the values the document opens with
// and serves the document, uncopied, as its own tail; a profile's body
// is the document's bytes between its mark and its close; and a lazy
// decode that succeeds finds the kernel, cycles and report the document
// declared. On the way it holds the opening parse to the strict decoder
// (checkOpen).
func FuzzStageEnvelopeDecode(f *testing.F) {
	prof := `{"kernel":"vecscale","cycles":9}`
	sum := sha256.Sum256([]byte(prof))
	d := hex.EncodeToString(sum[:])
	for _, doc := range []string{
		`{"cycles":120,"elapsedMs":1.5}` + "\n",
		`{"cycles":120,"elapsedMs":1.5}`,
		`{"cycles":9,"elapsedMs":2,"profileDigest":"` + d + `","profile":` + prof + "}\n",
		`{}`,
		"null\n",
		`{"cycles":-1,"elapsedMs":0}` + "\n",
		`{"cycles":1,"elapsedMs":0}{"cycles":2}` + "\n", // trailing data
		`{"cycles":1,"elapsedMs":0,"unknown":true}` + "\n",
	} {
		f.Add([]byte(doc), "vecscale")
	}
	for _, doc := range append(append(adviceSeeds(), openingSeeds()...), runPayloads(f)...) {
		f.Add(doc, "vecscale")
	}

	f.Fuzz(func(t *testing.T, doc []byte, kernel string) {
		checkOpen(t, doc)
		for s := stMeasure; s <= stAdvice; s++ {
			resp, err := decodeStage(s, doc, kernel)
			if ref := decodeStageRef(s, doc, kernel); (err == nil) != ref {
				t.Fatalf("decodeStage(%s) says %v, its reference accepted=%v", stageNames[s], err, ref)
			}
			if err != nil {
				continue
			}
			cycles, elapsed, digest, _, _ := openRef(doc)
			if resp.Kind != Kind(s-stMeasure) || resp.Cycles < 0 || resp.Cycles != cycles ||
				math.Float64bits(resp.ElapsedMS) != math.Float64bits(elapsed) || resp.ProfileDigest != digest ||
				&resp.Tail()[0] != &doc[1] {
				t.Fatalf("decodeStage(%s) accepted an invalid artifact", stageNames[s])
			}
			switch s {
			case stProfile:
				pa := resp.prof
				if pa.kernel != kernel || &pa.body[0] != &doc[len(doc)-len(tailClose)-len(pa.body)] ||
					!bytes.HasSuffix(doc[:len(doc)-len(tailClose)-len(pa.body)], []byte(profileMark)) {
					t.Fatal("decodeStage took another profile than the document's")
				}
				if prof, err := pa.profile(fuzzEngine); err == nil && (prof.Kernel != kernel || prof.Cycles != resp.Cycles) {
					t.Fatal("a stored profile decoded to another than its document declared")
				}
			case stAdvice:
				aa := resp.adv
				if aa.kernel != kernel || resp.ProfileDigest == "" {
					t.Fatal("decodeStage accepted an advice of nothing")
				}
				if advice, report, err := aa.decoded(fuzzEngine, resp.doc); err == nil && (advice.Kernel != kernel || report == "") {
					t.Fatal("a stored advice decoded to no report")
				}
			}
		}
	})
}

// tokenEnd is where the strict encoding/json decoder ends the string or
// number data opens with, or -1 where data opens with neither or with
// one the decoder rejects.
func tokenEnd(data []byte) int {
	if len(data) == 0 || !(data[0] == '"' || data[0] == '-' || '0' <= data[0] && data[0] <= '9') {
		return -1
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	if _, err := dec.Token(); err != nil {
		return -1
	}
	return int(dec.InputOffset())
}

// FuzzValidJSON holds the token cutters parseOpen takes an opening apart
// with to encoding/json on any input. scanNumber ends the number data
// opens with where the strict decoder ends it, and rejects what the
// decoder rejects. plainString, which reads a digest, may reject any
// string, but one it accepts the decoder ends at the same byte and reads
// as the same body. The seeds are the real stage documents and every
// edge of the JSON grammar: each is one that a cutter wrong in one
// respect — a control byte let through, a leading zero, an escape taken
// as plain, a quote missed past a word — gets wrong. (The name is older
// than the target: it first held the stage decoder's JSON validator,
// which the store frame's checksum made redundant.)
func FuzzValidJSON(f *testing.F) {
	for _, payload := range runPayloads(f) {
		f.Add(payload)
	}
	// Long tokens: the longest number a run writes and one digit more, a
	// digest, and strings and numbers far past any word or bound.
	for _, s := range []string{
		"-0.0000012345678901234567", "-0.00000123456789012345678", `"` + strings.Repeat("0123456789abcdef", 4) + `"`,
		`"` + strings.Repeat("a", 60000) + `"`, `"` + strings.Repeat("a", 60000), `"` + strings.Repeat(`\"`, 1000) + `"`,
		strings.Repeat("9", 1000), "1" + strings.Repeat("0", 1000) + "e-1000", "1.5e-3x", `"a"b`,
	} {
		f.Add([]byte(s))
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
	// Put the byte that matters at every offset across two words.
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
		if len(data) == 0 || data[0] != '"' {
			got := -1
			if len(data) > 0 {
				got = scanNumber(data, 0)
			}
			if want := tokenEnd(data); got != want {
				t.Fatalf("scanNumber ends %.200q's first token at %d, encoding/json at %d", data, got, want)
			}
			return
		}
		s, got := plainString(data)
		if got < 0 {
			return
		}
		var want string
		if end := tokenEnd(data); end != got || json.Unmarshal(data[:got], &want) != nil || s != want {
			t.Fatalf("plainString reads %.200q as %q, %d bytes; encoding/json as %q, %d bytes", data, s, got, want, end)
		}
	})
}

// FuzzStagePayloadFraming pins the opening every stage payload shares:
// what appendOpen writes, with strconv and by hand, is what encoding/json
// writes for the same values, and so is what AppendString writes for any
// string; parseOpen reads it back as the same values, in the document of
// a measure or of an advice, which decodeStage serves uncopied; a count
// below zero or a digest that needs an escape is never read back; and no
// torn or padded copy of the document is accepted. doc, taken as a
// document of its own, holds parseOpen to the strict decoder
// (checkOpen).
func FuzzStagePayloadFraming(f *testing.F) {
	f.Add(1.25, int64(1280), "", "", []byte(nil), uint16(7))
	f.Add(0.0, int64(9), strings.Repeat("ab", 32), "vecscale", []byte(`{"cycles":9,"elapsedMs":0}`+"\n"), uint16(60))
	for _, payload := range runPayloads(f) {
		cycles, elapsed, digest, _, ok := parseOpen(payload)
		if !ok {
			f.Fatalf("a run wrote the non-canonical opening of %.80q", payload)
		}
		f.Add(elapsed, cycles, digest, "vecscale", payload, uint16(len(payload)/2))
	}
	// Each side of encoding/json's exponent cutoffs, negative zero,
	// subnormals, the extremes, the longest a float64 is written, and what
	// has no JSON form.
	for _, elapsed := range []float64{1e-6, 1e-7, 9.999999999999999e-7, 1e20, 1e21, 123456789e13, -1e21, -1.5e-9,
		math.Copysign(0, -1), 5e-324, 2.2250738585072009e-308, math.SmallestNonzeroFloat64 * 3, math.MaxFloat64, -math.MaxFloat64,
		-1.2345678901234567e-6, math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add(elapsed, int64(math.MinInt64), "", "", []byte(nil), uint16(0))
	}
	f.Add(0.5, int64(math.MaxInt64), "d<>&", "k\"\\\x00\x1f\x7f\xe2\x80\xa8\xe2\x80\xa9\xc3\xa9\xff", []byte(nil), uint16(3))
	// Each byte or rune a string encoder must escape, or must not, alone.
	for _, r := range []string{"<", ">", "&", `"`, `\`, "\x00", "\x1f", "\x7f", "\xc3\xa9", "\xff", "\xe2\x80\xa8", "\xe2\x80\xa9"} {
		f.Add(1.5, int64(120), "d"+r, "k"+r, []byte(nil), uint16(5))
	}
	for _, doc := range openingSeeds() {
		f.Add(1.0, int64(1), "", "", doc, uint16(0))
	}

	f.Fuzz(func(t *testing.T, elapsed float64, cycles int64, digest, kernel string, doc []byte, cut uint16) {
		checkOpen(t, doc)
		ref, err := json.Marshal(wireTail{Cycles: cycles, ElapsedMS: elapsed, ProfileDigest: digest})
		if err != nil {
			return // a NaN or infinite elapsed has no JSON form: no run writes one
		}
		open := appendOpen(nil, cycles, elapsed, digest)
		if !bytes.Equal(open, ref[:len(ref)-len("}")]) {
			t.Fatalf("appendOpen wrote %q, encoding/json %q", open, ref)
		}
		for _, s := range []string{digest, kernel} {
			if want, _ := json.Marshal(s); !bytes.Equal(AppendString(nil, s), want) {
				t.Fatalf("AppendString wrote %q, encoding/json %q", AppendString(nil, s), want)
			}
		}
		s, own := stMeasure, append(open, tailClose...)
		if digest != "" {
			s, own = stAdvice, append(open, `,"report":"GPA"`+tailClose...)
		}
		checkOpen(t, own)
		resp, err := decodeStage(s, own, kernel)
		verbatim := string(AppendString(nil, digest)) == `"`+digest+`"`
		if (err == nil) != (cycles >= 0 && verbatim) {
			t.Fatalf("decodeStage(%s) of %q says %v", stageNames[s], own, err)
		}
		if err == nil && (resp.Cycles != cycles || math.Float64bits(resp.ElapsedMS) != math.Float64bits(elapsed) ||
			resp.ProfileDigest != digest || &resp.doc[0] != &own[0]) {
			t.Fatalf("round trip: %d, %v, %q -> %d, %v, %q, or the document was copied",
				cycles, elapsed, digest, resp.Cycles, resp.ElapsedMS, resp.ProfileDigest)
		}
		n := int(cut) % len(own)
		if _, err := decodeStage(s, own[:n], kernel); err == nil {
			t.Fatalf("accepted the document torn at %d of %d bytes", n, len(own))
		}
		for _, padded := range [][]byte{append(own[:len(own):len(own)], 'x'), append([]byte(" "), own...)} {
			if _, err := decodeStage(s, padded, kernel); err == nil {
				t.Fatalf("accepted the padded document %q", padded)
			}
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
		digest := hex.EncodeToString(sum[:])
		open, err := json.Marshal(wireTail{Cycles: prof.Cycles, ElapsedMS: elapsed, ProfileDigest: digest})
		if err != nil {
			return
		}
		pv, err := decodeStage(stProfile, append(open[:len(open)-1], `,"profile":`+profileJSON+"}\n"...), prof.Kernel)
		if err != nil {
			return // decoder rejected it (not canonical, not one value): fine
		}
		if pv.ElapsedMS != elapsed || pv.Cycles != prof.Cycles {
			t.Fatalf("opening mutated: %v, %d -> %v, %d", elapsed, prof.Cycles, pv.ElapsedMS, pv.Cycles)
		}
		if pv.ProfileDigest != digest || !bytes.Equal(pv.prof.body, []byte(profileJSON)) {
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
