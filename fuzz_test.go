package gpa_test

import (
	"bytes"
	"context"
	"errors"
	"runtime/metrics"
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

// The intake's memory bound: reading, packing, unpacking and simulating
// an input of n bytes allocates at most intakeBytesPerByte·n +
// intakeBaseBytes heap bytes (checkAllocBound).
const (
	// Over the seeds (every Table 3 variant's source, 0.5–26 KB, and its
	// CUBIN) a warm intake allocates 3–92 bytes per input byte, 183 at
	// most for one asm seed and 335 for one CUBIN: the module, its CUBIN,
	// the round trip's second module and CUBIN and the flat program are
	// each a small multiple of the input. 512 is room above the worst.
	intakeBytesPerByte = 512
	// The constant part: the simulator's pools are filled on a process's
	// first runs (the cold seeds reach 0.5 MB before their per-byte
	// share), and the counter runs ahead of the bytes handed out by up
	// to one span per size class. 4 MB covers both with room.
	intakeBaseBytes = 4 << 20
)

// heapAllocated reads the bytes the process has allocated on the heap
// so far from runtime/metrics, which does not stop the world. The fuzz
// function runs alone in its process, so a difference of two readings
// around it is what it allocated.
func heapAllocated() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// checkAllocBound fails unless the heap bytes allocated since start, for
// an input of n bytes, are within the intake's memory bound. Deferred
// with start read on entry, it covers every path out of a fuzz call.
func checkAllocBound(t *testing.T, n int, start uint64) {
	t.Helper()
	if got, bound := heapAllocated()-start, uint64(intakeBytesPerByte*n+intakeBaseBytes); got > bound {
		t.Errorf("an intake of %d bytes allocated %d heap bytes, past %d·%d + %d = %d",
			n, got, intakeBytesPerByte, n, intakeBaseBytes, bound)
	}
}

// recursiveCall is a device function calling itself forever: its
// simulation must stop at the call depth bound.
const recursiveCall = ".func rec device\n\tCAL rec {S:1}\n\tRET\n.func k global\n\tCAL rec\n\tEXIT\n"

// FuzzLoadKernelAsm feeds LoadKernelAsm arbitrary SASS text, as a
// kernel-cache miss on an asm body does: it must not panic, must refuse
// with ErrAssemble or ErrBadKernel, a kernel it accepts must pack and
// unpack to the same module and simulate (checkSimulates), and all of it
// must stay within the intake's memory bound (checkAllocBound).
func FuzzLoadKernelAsm(f *testing.F) {
	srcs, _, _ := intakeSeeds(f)
	for _, src := range srcs {
		f.Add(src)
	}
	f.Add(".func k global\nA:ISETP 0,[R0],0\nEXIT") // assembles, but cannot be encoded
	f.Add(recursiveCall)
	f.Fuzz(func(t *testing.T, src string) {
		defer checkAllocBound(t, len(src), heapAllocated())
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
// with ErrBadKernel (or ErrAssemble), a kernel it accepts must pack and
// unpack to the same module and simulate (checkSimulates), and all of it
// must stay within the intake's memory bound (checkAllocBound).
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
		defer checkAllocBound(t, len(blob)+len(entry), heapAllocated())
		k, err := gpa.LoadKernelBinary(blob, gpa.Launch{Entry: entry})
		if err != nil {
			checkIntakeError(t, err)
			return
		}
		checkRoundTrip(t, k)
		checkSimulates(t, k)
	})
}
