package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"gpa/internal/kernels"
)

// FuzzKernelRequestDecode holds the one-pass decoder to decode, its
// encoding/json reference: a body parseKernelRequest reads, decode
// reads into an equal request, and decodeKernel answers every body —
// those it hands to encoding/json included — exactly as decode does.
// Seeds: the bodies bench/ sends (warm_asm's 52, warm_bench's 26) and
// TestBadRequests' rows, one per class of body the decoder declines.
func FuzzKernelRequestDecode(f *testing.F) {
	for _, body := range warmAsmBodies(f) {
		f.Add([]byte(body))
	}
	for _, b := range kernels.All() {
		f.Add(mustMarshal(kernelRequest{Bench: b.ID(), SimSMs: 4}))
	}
	for _, tc := range kernelBodyRows {
		if len(tc.body) <= maxBodyBytes {
			f.Add([]byte(tc.body))
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		post := func() *http.Request {
			r := httptest.NewRequest(http.MethodPost, "/v1/advise", bytes.NewReader(body))
			if len(body)%2 == 1 {
				r.ContentLength = -1 // as a chunked body arrives
			}
			return r
		}
		var ref kernelRequest
		refRec := httptest.NewRecorder()
		refOK := decode(refRec, post(), &ref)

		var fast kernelRequest
		if parseKernelRequest(body, &fast) {
			if !refOK {
				t.Fatalf("read a body encoding/json rejects (%s)", refRec.Body)
			}
			if !reflect.DeepEqual(fast, ref) {
				t.Fatalf("read %+v, encoding/json %+v", fast, ref)
			}
		}

		var got kernelRequest
		rec := httptest.NewRecorder()
		ok := decodeKernel(rec, post(), &got)
		if ok != refOK || ok && !reflect.DeepEqual(got, ref) {
			t.Fatalf("decodeKernel = %v %+v, decode = %v %+v", ok, got, refOK, ref)
		}
		if rec.Code != refRec.Code || rec.Body.String() != refRec.Body.String() {
			t.Fatalf("answered %d %s, decode answered %d %s", rec.Code, rec.Body, refRec.Code, refRec.Body)
		}
	})
}
