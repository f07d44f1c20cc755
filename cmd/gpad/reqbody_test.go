package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"gpa"
	"gpa/internal/kernels"
)

// seedAsm is a one-kernel source as a JSON string spells it, with
// comment in its comment line.
func seedAsm(comment string) string {
	return `.func k global\n// ` + comment + `\n\tMOV R0, 0x0 {S:2}\n\tEXIT`
}

// FuzzKernelRequestDecode holds the one-pass decoder to decode, its
// encoding/json reference. Every body goes through one server twice —
// the first time its asm source, if the decoder reads one, misses the
// kernel cache; the second time it hits — and both times decodeKernel
// answers exactly as decode does, and the request it reads builds the
// job decode's request builds: the same error, or the same kernel and
// launch and options. A repeat the decoder read and built must be a
// cache hit. Seeds: the bodies bench/ sends (warm_asm's 52, warm_bench's
// 26), TestBadRequests' rows, one per class of body the decoder
// declines, and asm strings spelled every way JSON allows.
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
	asm := func(comment string) []byte {
		return []byte(`{"asm":"` + seedAsm(comment) + `","gridX":2,"blockX":64}`)
	}
	for _, esc := range []string{`\"`, `\\`, `\/`, `\b`, `\f`, `\n`, `\r`, `\t`} {
		f.Add(asm("escape " + esc))
	}
	f.Add(asm(`a/b`))    // the same source as the next seed,
	f.Add(asm(`a\/b`))   // spelled another way
	f.Add(asm("\x01"))   // a raw control byte
	f.Add(asm("vólta"))  // non-ASCII
	f.Add(asm(`\u0041`)) // a \u escape
	f.Add([]byte(`{"asm":"garbage","asm":"` + seedAsm("dup") + `","gridX":2,"blockX":64}`))

	s := &server{kernels: newKernelCache(nil), benches: indexBenches()}
	ref := &server{kernels: newKernelCache(nil), benches: indexBenches()}
	f.Fuzz(func(t *testing.T, body []byte) {
		post := func() *http.Request {
			r := httptest.NewRequest(http.MethodPost, "/v1/advise", bytes.NewReader(body))
			if len(body)%2 == 1 {
				r.ContentLength = -1 // as a chunked body arrives
			}
			return r
		}
		var want kernelRequest
		wantRec := httptest.NewRecorder()
		wantOK := decode(wantRec, post(), &want)
		var wantJob gpa.Job
		var wantErr error
		if wantOK {
			wantJob, wantErr = want.job(ref)
		}

		var first *gpa.Kernel
		for pass := range 2 {
			var got kernelRequest
			rec := httptest.NewRecorder()
			ok := s.decodeKernel(rec, post(), &got)
			if ok != wantOK || rec.Code != wantRec.Code || rec.Body.String() != wantRec.Body.String() {
				t.Fatalf("pass %d answered %v %d %s, decode %v %d %s",
					pass, ok, rec.Code, rec.Body, wantOK, wantRec.Code, wantRec.Body)
			}
			if !ok {
				return
			}
			if pass == 1 && first != nil && got.kernel != first {
				t.Fatalf("a repeat of an accepted asm body missed the kernel cache (asmRaw %q)", got.asmRaw)
			}
			if got.kernel != nil && want.Asm == "" {
				t.Fatal("a kernel-cache hit for a body with no asm")
			}
			read := got
			read.kernel, read.asmRaw = nil, ""
			if got.kernel != nil {
				read.Asm = want.Asm
			}
			if !reflect.DeepEqual(read, want) {
				t.Fatalf("pass %d read %+v, encoding/json %+v", pass, read, want)
			}
			job, err := got.job(s)
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("pass %d: job error %v, decode's request %v", pass, err, wantErr)
			}
			if err != nil {
				return
			}
			sameJob(t, job, wantJob)
			if pass == 0 && (got.asmRaw != "" || got.kernel != nil) {
				first = job.Kernel
			}
		}
	})
}

// sameJob fails unless got is want as far as a run can tell: kind,
// timeout, options, and a kernel of the same launch that packs to the
// same bytes.
func sameJob(t *testing.T, got, want gpa.Job) {
	t.Helper()
	if got.Kind != want.Kind || got.Timeout != want.Timeout || got.WorkloadKey != want.WorkloadKey ||
		!reflect.DeepEqual(got.Options, want.Options) {
		t.Fatalf("job %+v, decode's request builds %+v", got, want)
	}
	if got.Kernel == want.Kernel {
		return
	}
	if got.Kernel.Launch != want.Kernel.Launch {
		t.Fatalf("kernel launch %+v, decode's request builds %+v", got.Kernel.Launch, want.Kernel.Launch)
	}
	gb, err := got.Kernel.SaveBinary()
	if err != nil {
		t.Fatal(err)
	}
	wb, err := want.Kernel.SaveBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb, wb) {
		t.Fatal("the kernel packs to other bytes than decode's request builds")
	}
}
