package main

import (
	"errors"
	"fmt"
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

// loadAsm resolves src as the encoding/json path does: keyed on the
// decoded text.
func loadAsm(c *kernelCache, src string, l gpa.Launch) (*gpa.Kernel, error) {
	return cachedKernel(c, sourceAsm, l, src, func() (*gpa.Kernel, error) { return gpa.LoadKernelAsm(src, l) })
}

func asmKernel(t *testing.T, c *kernelCache, src string, l gpa.Launch) *gpa.Kernel {
	t.Helper()
	k, err := loadAsm(c, src, l)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestKernelCacheKeysOnLaunch: an equal submission gets the shared
// kernel; changing any launch field (the kernel carries its launch)
// or the loader must not.
func TestKernelCacheKeysOnLaunch(t *testing.T) {
	c := newKernelCache(nil)
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
	blob := []byte(twoKernelSrc)
	if _, err := cachedKernel(c, sourceBinary, base, blob, func() (*gpa.Kernel, error) { return gpa.LoadKernelBinary(blob, base) }); err == nil {
		t.Error("asm text served as a binary from the asm entry")
	}
}

func TestKernelCacheNeverCachesErrors(t *testing.T) {
	c := newKernelCache(nil)
	for i := 0; i < 2; i++ {
		_, err := loadAsm(c, "garbage", gpa.Launch{GridX: 1, BlockX: 32})
		if !errors.Is(err, gpa.ErrAssemble) {
			t.Fatalf("attempt %d: err = %v, want ErrAssemble", i, err)
		}
	}
	// A missing entry fails after a successful assembly; still not cached.
	if _, err := loadAsm(c, twoKernelSrc, gpa.Launch{Entry: "third"}); !errors.Is(err, gpa.ErrBadKernel) {
		t.Fatalf("err = %v, want ErrBadKernel", err)
	}
	if c.lru.Len() != 0 {
		t.Errorf("cache holds %d entries after failed builds only, want 0", c.lru.Len())
	}
}

func TestKernelCacheByteBoundEvicts(t *testing.T) {
	// Room for any number of kernels but only two of these sources: an
	// entry costs the source and entry bytes it keeps.
	src := func(pad int) string { return twoKernelSrc + strings.Repeat("\n", pad) }
	l := gpa.Launch{Entry: "first", GridX: 1, BlockX: 32}
	c := &kernelCache{lru: lru.New[uint64, kernelEntry](1000, int64(2*(len(twoKernelSrc)+len(l.Entry))+3))}
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
	if k, _ := probe(c, sourceAsm, l, src(1)); k != nil {
		t.Error("the least recently used kernel survived the byte bound")
	}
}

// TestKernelCacheConcurrentSubmissionsShareOneKernel runs under -race in
// CI: equal submissions racing on a cold cache may each assemble, but
// all of them leave with the same *Kernel.
func TestKernelCacheConcurrentSubmissionsShareOneKernel(t *testing.T) {
	c := newKernelCache(nil)
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
			got[i], errs[i] = loadAsm(c, testKernelSrc, l)
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

// TestKernelCacheComparesMaterial: the key is a hash, so a hit must
// equal the stored material byte for byte; an entry under the same key
// with other material — as a hash collision would leave it — is a miss.
// And one source under two spellings is two entries.
func TestKernelCacheComparesMaterial(t *testing.T) {
	c := newKernelCache(nil)
	l := gpa.Launch{Entry: "first", GridX: 1, BlockX: 32}
	k := asmKernel(t, c, twoKernelSrc, l)
	other := twoKernelSrc[:len(twoKernelSrc)-1] + " "
	c.lru.Add(kernelKey(sourceAsm, l, other), kernelEntry{kind: sourceAsm, launch: l, src: twoKernelSrc, kernel: k}, 0)
	if got, _ := probe(c, sourceAsm, l, other); got != nil {
		t.Error("a key match with other source bytes was served")
	}
	if got, _ := probe(c, sourceAsm, l, []byte(twoKernelSrc)); got != k {
		t.Error("the source as a byte slice missed its entry")
	}
	if got, _ := probe(c, sourceAsmRaw, l, twoKernelSrc); got != nil {
		t.Error("the raw spelling of a source shares the decoded spelling's entry")
	}
}

// TestKernelCacheKeepsMaterialWithinBound: an entry keeps its source,
// so the byte bound is a bound on kept bytes. Many distinct large
// sources leave entries whose kept source and entry bytes sum to at
// most kernelCacheBytes, and to more than that less one source: the
// cache stays full.
func TestKernelCacheKeepsMaterialWithinBound(t *testing.T) {
	c := newKernelCache(nil)
	l := gpa.Launch{Entry: "first", GridX: 1, BlockX: 32}
	const size = 300 << 10
	var srcs []string
	for i := range 3 * kernelCacheBytes / size {
		src := fmt.Sprintf("// %d\n%s", i, strings.Repeat(" ", size))
		srcs = append(srcs, src)
		if _, err := cachedKernel(c, sourceAsmRaw, l, src, func() (*gpa.Kernel, error) { return new(gpa.Kernel), nil }); err != nil {
			t.Fatal(err)
		}
	}
	kept := 0
	for _, src := range srcs {
		if k, _ := probe(c, sourceAsmRaw, l, src); k != nil {
			kept += len(src) + len(l.Entry)
		}
	}
	if kept > kernelCacheBytes || kept <= kernelCacheBytes-size-len(l.Entry)-10 {
		t.Errorf("entries keep %d bytes, want at most %d and within one source of it", kept, kernelCacheBytes)
	}
}
