package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"gpa"
)

// TestOverBoundFanOutRefusedEarly: a batch or a sweep far over
// maxFanOut is refused while its body is decoded, not after every entry
// has been built: 500 000 batch entries and 1 000 000 sweep models,
// each body about 7 MB, answer 400 bad_request having allocated less
// than three times the body (the scanner's read buffer is most of it).
func TestOverBoundFanOutRefusedEarly(t *testing.T) {
	h := newServer(gpa.NewEngine(nil))
	many := func(open, elem string, n int) []byte {
		b := make([]byte, 0, len(open)+n*(len(elem)+1)+2)
		b = append(b, open...)
		for i := range n {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, elem...)
		}
		return append(b, "]}"...)
	}
	for _, c := range []struct {
		path string
		body []byte
	}{
		{"/v1/batch", many(`{"requests":[`, `{"bench":"x"}`, 500_000)},
		{"/v1/sweep", many(`{"bench":"rodinia/hotspot","archs":[`, `"v100"`, 1_000_000)},
	} {
		if len(c.body) > maxBodyBytes {
			t.Fatalf("%s probe is %d bytes, over the body bound", c.path, len(c.body))
		}
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, c.path, bytes.NewReader(c.body))
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		h.ServeHTTP(rec, req)
		took := time.Since(start)
		runtime.ReadMemStats(&after)
		alloc := after.TotalAlloc - before.TotalAlloc
		var e errorBody
		if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error.Code != "bad_request" {
			t.Errorf("%s: status %d %.200s, want 400 bad_request", c.path, rec.Code, rec.Body)
		}
		if alloc >= 3*uint64(len(c.body)) {
			t.Errorf("%s: refusing a %d-byte body allocated %d bytes (%.1fx), want under 3x",
				c.path, len(c.body), alloc, float64(alloc)/float64(len(c.body)))
		}
		t.Logf("%s: %d-byte body refused in %v after %d bytes allocated (%.2fx)",
			c.path, len(c.body), took, alloc, float64(alloc)/float64(len(c.body)))
	}
}

// batchRequestRef and sweepRequestRef are batchRequest and
// sweepRequest with plain slices: what encoding/json decodes with no
// bound on the list.
type batchRequestRef struct {
	Requests []kernelRequest `json:"requests"`
}

type sweepRequestRef struct {
	kernelRequest
	Archs []string `json:"archs,omitempty"`
}

// FuzzFanOutDecode holds batch and sweep decoding to encoding/json's
// decode of a plain slice. Every body is decoded as a batch and as a
// sweep, each through decode both ways: within the bound the two accept
// and reject the same bodies, answer a rejection with the same status
// and error code, and fill the same request; a list encoding/json
// decodes past maxFanOut is refused.
func FuzzFanOutDecode(f *testing.F) {
	entries := func(open, elem string, n int) []byte {
		return []byte(open + strings.TrimSuffix(strings.Repeat(elem+",", n), ",") + "]}")
	}
	for _, n := range []int{maxFanOut, maxFanOut + 1} {
		f.Add(entries(`{"requests":[`, `{"bench":"rodinia/hotspot"}`, n))
		f.Add(entries(`{"bench":"rodinia/hotspot","archs":[`, `"v100"`, n))
	}
	for _, body := range []string{
		`{"requests":[]}`,
		`{"requests":null}`,
		`{"requests":[{"bench":"x"}],"requests":null}`,
		`{"requests":[{"bench":"x"}],"bogus":1}`,
		`{"bogus":1,"requests":[{"bench":"x","zz":1}]}`,
		`{"requests":[{"bench":"x"}]} {}`,
		`{"requests":[{"bench":"a","arch":"t4"},{"bench":"c","seed":3}],"requests":[{"bench":"b"}]}`,
		`{"requests":[{"bench":"a"},{"bench":"b"},{"bench":"c"}],"requests":[{"arch":"t4"}],"requests":[{},{"kind":"profile"}]}`,
		`{"requests":[{"bench":"a","arch":"t4"}],"requests":[],"requests":[{"bench":"b"}]}`,
		`{"Requests":[{"Bench":"x","SEED":7}]}`,
		`{"requests":[{"bench":5}]}`,
		`{"requests":{}}`,
		`{"requests":"x"}`,
		`{"bench":"x","arch":"t4","archs":["v100"]}`,
		`{"bench":"x","archs":[]}`,
		`{"bench":"x","archs":null}`,
		`{"bench":"x","archs":["t4"],"archs":null}`,
		`{"bench":"x","archs":["t4","a100"],"archs":["v100"]}`,
		`{"bench":"x","archs":[1]}`,
		`{"bench":"x","archs":"v100"}`,
	} {
		f.Add([]byte(body))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		var b batchRequest
		var bRef batchRequestRef
		if sameDecode(t, "batch", body, &b, &bRef, func() int { return len(bRef.Requests) }) &&
			!reflect.DeepEqual([]kernelRequest(b.Requests), bRef.Requests) {
			t.Fatalf("batch filled %+v, encoding/json %+v", b, bRef)
		}
		var s sweepRequest
		var sRef sweepRequestRef
		if sameDecode(t, "sweep", body, &s, &sRef, func() int { return len(sRef.Archs) }) &&
			(!reflect.DeepEqual(s.kernelRequest, sRef.kernelRequest) || !reflect.DeepEqual([]string(s.Archs), sRef.Archs)) {
			t.Fatalf("sweep filled %+v, encoding/json %+v", s, sRef)
		}
	})
}

// sameDecode decodes body into got and into ref, whose list then holds
// n() entries, and fails unless got answers as ref does within the bound
// and is refused past it. It reports whether both accepted.
func sameDecode(t *testing.T, what string, body []byte, got, ref any, n func() int) bool {
	t.Helper()
	post := func() *http.Request {
		return httptest.NewRequest(http.MethodPost, "/v1/"+what, bytes.NewReader(body))
	}
	rec, refRec := httptest.NewRecorder(), httptest.NewRecorder()
	ok, refOK := decode(rec, post(), got), decode(refRec, post(), ref)
	code := func(rec *httptest.ResponseRecorder) string {
		var e errorBody
		_ = json.Unmarshal(rec.Body.Bytes(), &e)
		return e.Error.Code
	}
	if refOK && n() > maxFanOut {
		if ok || rec.Code != http.StatusBadRequest || code(rec) != "bad_request" {
			t.Fatalf("%s of %d entries answered %v %d %s, want 400 bad_request", what, n(), ok, rec.Code, rec.Body)
		}
		return false
	}
	if ok != refOK || rec.Code != refRec.Code || code(rec) != code(refRec) {
		t.Fatalf("%s answered %v %d %s, encoding/json %v %d %s", what, ok, rec.Code, rec.Body, refOK, refRec.Code, refRec.Body)
	}
	return ok
}
