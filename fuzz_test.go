package gpa_test

import (
	"bytes"
	"errors"
	"testing"

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

// FuzzLoadKernelAsm feeds LoadKernelAsm arbitrary SASS text, as a
// kernel-cache miss on an asm body does: it must not panic, must refuse
// with ErrAssemble or ErrBadKernel, and a kernel it accepts must pack
// and unpack to the same module.
func FuzzLoadKernelAsm(f *testing.F) {
	srcs, _, _ := intakeSeeds(f)
	for _, src := range srcs {
		f.Add(src)
	}
	f.Add(".func k global\nA:ISETP 0,[R0],0\nEXIT") // assembles, but cannot be encoded
	f.Fuzz(func(t *testing.T, src string) {
		k, err := gpa.LoadKernelAsm(src, gpa.Launch{})
		if err != nil {
			checkIntakeError(t, err)
			return
		}
		checkRoundTrip(t, k)
	})
}

// FuzzLoadKernelBinary feeds LoadKernelBinary arbitrary CUBIN bytes and
// entry names, as a binary body does: it must not panic, must refuse
// with ErrBadKernel (or ErrAssemble), and a kernel it accepts must pack
// and unpack to the same module.
func FuzzLoadKernelBinary(f *testing.F) {
	_, entries, blobs := intakeSeeds(f)
	for i, blob := range blobs {
		f.Add(blob, entries[i])
	}
	f.Fuzz(func(t *testing.T, blob []byte, entry string) {
		k, err := gpa.LoadKernelBinary(blob, gpa.Launch{Entry: entry})
		if err != nil {
			checkIntakeError(t, err)
			return
		}
		checkRoundTrip(t, k)
	})
}
