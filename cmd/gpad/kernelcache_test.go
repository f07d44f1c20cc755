package main

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"gpa"
	"gpa/internal/lru"
)

// twoKernelSrc holds two entry points, so the launch's entry alone can
// select a different kernel from one source.
const twoKernelSrc = `
.func first global
	MOV R0, 0x0 {S:2}
	EXIT
.func second global
	MOV R1, 0x1 {S:2}
	EXIT
`

func asmKernel(t *testing.T, c *kernelCache, src string, l gpa.Launch) *gpa.Kernel {
	t.Helper()
	k, err := cachedKernel(c, sourceAsm, src, l, gpa.LoadKernelAsm)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestKernelCacheKeysOnLaunch: an equal submission gets the shared
// kernel; changing any launch field (the kernel carries its launch)
// or the loader must not.
func TestKernelCacheKeysOnLaunch(t *testing.T) {
	c := newKernelCache()
	base := gpa.Launch{Entry: "first", GridX: 4, BlockX: 64, RegsPerThread: 16}
	k := asmKernel(t, c, twoKernelSrc, base)
	if again := asmKernel(t, c, twoKernelSrc, base); again != k {
		t.Fatal("an equal submission did not get the cached kernel")
	}
	variants := map[string]gpa.Launch{
		"entry":  {Entry: "second", GridX: 4, BlockX: 64, RegsPerThread: 16},
		"grid":   {Entry: "first", GridX: 8, BlockX: 64, RegsPerThread: 16},
		"gridY":  {Entry: "first", GridX: 4, GridY: 2, BlockX: 64, RegsPerThread: 16},
		"block":  {Entry: "first", GridX: 4, BlockX: 128, RegsPerThread: 16},
		"regs":   {Entry: "first", GridX: 4, BlockX: 64, RegsPerThread: 32},
		"shared": {Entry: "first", GridX: 4, BlockX: 64, RegsPerThread: 16, SharedMemPerBlock: 1024},
	}
	seen := map[*gpa.Kernel]string{k: "base"}
	for name, l := range variants {
		v := asmKernel(t, c, twoKernelSrc, l)
		if other, dup := seen[v]; dup {
			t.Errorf("launch differing in %s shares a kernel with %s", name, other)
		}
		seen[v] = name
		if v.Launch != l {
			t.Errorf("%s: cached kernel carries launch %+v, want %+v", name, v.Launch, l)
		}
	}
	if c.lru.Len() != 1+len(variants) {
		t.Errorf("cache holds %d kernels, want %d", c.lru.Len(), 1+len(variants))
	}

	// The same bytes through the other loader are a different submission
	// (and here, not a CUBIN at all).
	if _, err := cachedKernel(c, sourceBinary, []byte(twoKernelSrc), base, gpa.LoadKernelBinary); err == nil {
		t.Error("asm text served as a binary from the asm entry")
	}
}

func TestKernelCacheNeverCachesErrors(t *testing.T) {
	c := newKernelCache()
	for i := 0; i < 2; i++ {
		_, err := cachedKernel(c, sourceAsm, "garbage", gpa.Launch{GridX: 1, BlockX: 32}, gpa.LoadKernelAsm)
		if !errors.Is(err, gpa.ErrAssemble) {
			t.Fatalf("attempt %d: err = %v, want ErrAssemble", i, err)
		}
	}
	// A missing entry fails after a successful assembly; still not cached.
	if _, err := cachedKernel(c, sourceAsm, twoKernelSrc, gpa.Launch{Entry: "third"}, gpa.LoadKernelAsm); !errors.Is(err, gpa.ErrBadKernel) {
		t.Fatalf("err = %v, want ErrBadKernel", err)
	}
	if c.lru.Len() != 0 {
		t.Errorf("cache holds %d entries after failed builds only, want 0", c.lru.Len())
	}
}

func TestKernelCacheByteBoundEvicts(t *testing.T) {
	// Room for any number of kernels but only two of these sources.
	src := func(pad int) string { return twoKernelSrc + strings.Repeat("\n", pad) }
	c := &kernelCache{lru: lru.New[kernelDigest, *gpa.Kernel](1000, int64(2*len(twoKernelSrc)+3))}
	l := gpa.Launch{Entry: "first", GridX: 1, BlockX: 32}
	k0 := asmKernel(t, c, src(0), l)
	asmKernel(t, c, src(1), l)
	if asmKernel(t, c, src(0), l) != k0 {
		t.Fatal("two sources within the byte bound: the first was not kept")
	}
	asmKernel(t, c, src(2), l) // over the bound: evicts the least recent, src(1)
	if c.lru.Len() != 2 {
		t.Fatalf("cache holds %d kernels, want 2", c.lru.Len())
	}
	if asmKernel(t, c, src(0), l) != k0 {
		t.Error("the byte bound evicted the most recently used kernel")
	}
	if _, ok := c.load(kernelKey(sourceAsm, src(1), l)); ok {
		t.Error("the least recently used kernel survived the byte bound")
	}
}

// TestKernelCacheConcurrentSubmissionsShareOneKernel runs under -race in
// CI: equal submissions racing on a cold cache may each assemble, but
// all of them leave with the same *Kernel.
func TestKernelCacheConcurrentSubmissionsShareOneKernel(t *testing.T) {
	c := newKernelCache()
	l := gpa.Launch{Entry: "vecscale", GridX: 160, BlockX: 256, RegsPerThread: 32}
	const n = 16
	got := make([]*gpa.Kernel, n)
	errs := make([]error, n)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < n; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait()
			got[i], errs[i] = cachedKernel(c, sourceAsm, testKernelSrc, l, gpa.LoadKernelAsm)
		}(i)
	}
	start.Done()
	done.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != got[0] {
			t.Fatalf("submission %d got its own kernel", i)
		}
	}
	if c.lru.Len() != 1 {
		t.Errorf("cache holds %d kernels, want 1", c.lru.Len())
	}
}
