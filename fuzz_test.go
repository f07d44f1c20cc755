package gpa_test

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"gpa"
	"gpa/internal/kernels"
)

// intakeSeeds is every Table 3 variant's SASS source, its entry and its
// packed CUBIN: what gpad's kernel intake is fed in asm and binary
// bodies.
func intakeSeeds(f *testing.F) (srcs []string, entries []string, blobs [][]byte) {
	f.Helper()
	for _, b := range kernels.All() {
		for _, v := range []*kernels.Variant{&b.Base, &b.Opt} {
			k, _, err := v.Build()
			if err != nil {
				f.Fatal(err)
			}
			blob, err := k.SaveBinary()
			if err != nil {
				f.Fatal(err)
			}
			srcs, entries, blobs = append(srcs, v.Asm), append(entries, k.Launch.Entry), append(blobs, blob)
		}
	}
	return srcs, entries, blobs
}

// checkIntakeError fails unless err is one of the two typed kernel
// intake errors, which gpad answers with 422.
func checkIntakeError(t *testing.T, err error) {
	t.Helper()
	if !errors.Is(err, gpa.ErrAssemble) && !errors.Is(err, gpa.ErrBadKernel) {
		t.Fatalf("untyped intake error: %v", err)
	}
}

// checkRoundTrip fails unless k packs, and its CUBIN loads back into a
// kernel that packs to the same bytes: the same module hash, which is
// the SHA-256 of them.
func checkRoundTrip(t *testing.T, k *gpa.Kernel) {
	t.Helper()
	blob, err := k.SaveBinary()
	if err != nil {
		t.Fatalf("an accepted kernel does not pack: %v", err)
	}
	back, err := gpa.LoadKernelBinary(blob, k.Launch)
	if err != nil {
		t.Fatalf("an accepted kernel's CUBIN does not load: %v", err)
	}
	again, err := back.SaveBinary()
	if err != nil {
		t.Fatalf("an accepted kernel's CUBIN loads into a module that does not pack: %v", err)
	}
	if !bytes.Equal(again, blob) {
		t.Fatal("an accepted kernel's CUBIN loads into another module")
	}
}

// checkSimulates runs an accepted kernel's launch on one SM under a
// 250 ms deadline: it must not panic, and may fail only with a typed
// error gpad answers without a 500 — a launch the kernel cannot host
// (ErrBadKernel), a run past a simulation limit (ErrSimLimit), or the
// deadline (ErrCanceled).
func checkSimulates(t *testing.T, k *gpa.Kernel) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	_, err := k.Measure(ctx, &gpa.Options{SimSMs: 1, Parallelism: 1})
	if err != nil && !errors.Is(err, gpa.ErrBadKernel) && !errors.Is(err, gpa.ErrSimLimit) &&
		!errors.Is(err, gpa.ErrCanceled) {
		t.Fatalf("an accepted kernel fails to simulate with an untyped error: %v", err)
	}
}

// recursiveCall is a device function calling itself forever: its
// simulation must stop at the call depth bound.
const recursiveCall = ".func rec device\n\tCAL rec {S:1}\n\tRET\n.func k global\n\tCAL rec\n\tEXIT\n"

// FuzzLoadKernelAsm feeds LoadKernelAsm arbitrary SASS text, as a
// kernel-cache miss on an asm body does: it must not panic, must refuse
// with ErrAssemble or ErrBadKernel, and a kernel it accepts must pack
// and unpack to the same module and simulate (checkSimulates).
func FuzzLoadKernelAsm(f *testing.F) {
	srcs, _, _ := intakeSeeds(f)
	for _, src := range srcs {
		f.Add(src)
	}
	f.Add(".func k global\nA:ISETP 0,[R0],0\nEXIT") // assembles, but cannot be encoded
	f.Add(recursiveCall)
	f.Fuzz(func(t *testing.T, src string) {
		k, err := gpa.LoadKernelAsm(src, gpa.Launch{})
		if err != nil {
			checkIntakeError(t, err)
			return
		}
		checkRoundTrip(t, k)
		checkSimulates(t, k)
	})
}

// FuzzLoadKernelBinary feeds LoadKernelBinary arbitrary CUBIN bytes and
// entry names, as a binary body does: it must not panic, must refuse
// with ErrBadKernel (or ErrAssemble), and a kernel it accepts must pack
// and unpack to the same module and simulate (checkSimulates).
func FuzzLoadKernelBinary(f *testing.F) {
	_, entries, blobs := intakeSeeds(f)
	for i, blob := range blobs {
		f.Add(blob, entries[i])
	}
	rec, err := gpa.LoadKernelAsm(recursiveCall, gpa.Launch{})
	if err != nil {
		f.Fatal(err)
	}
	recBlob, err := rec.SaveBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(recBlob, rec.Launch.Entry)
	f.Fuzz(func(t *testing.T, blob []byte, entry string) {
		k, err := gpa.LoadKernelBinary(blob, gpa.Launch{Entry: entry})
		if err != nil {
			checkIntakeError(t, err)
			return
		}
		checkRoundTrip(t, k)
		checkSimulates(t, k)
	})
}
