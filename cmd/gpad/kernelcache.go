package main

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"time"

	"gpa"
	"gpa/internal/lru"
	"gpa/internal/obs"
)

// The kernel front cache does for raw asm/binary submissions what
// kernels.Variant.Build does for bundled rows: a repeat of the same
// source and launch gets the kernel built the first time — assembled,
// and with its program, module hash and structure memoized behind the
// Kernel's sync.Onces — instead of paying assemble, pack, hash and Load
// again before the engine is even consulted. Both bounds are
// constants: as many kernels as a stage's LRU holds artifacts by
// default, and as many source bytes as one request body may carry.
const (
	kernelCacheEntries = 512
	kernelCacheBytes   = maxBodyBytes
)

// kernelSource tags which loader a cached kernel came from, so an asm
// text and a binary blob of equal bytes can never share an entry.
type kernelSource byte

const (
	sourceAsm kernelSource = iota + 1
	sourceBinary
)

// kernelDigest is a kernelKey: SHA-256 over (loader, launch, source).
type kernelDigest = [sha256.Size]byte

// kernelCache maps a submission's kernelDigest to the shared
// *gpa.Kernel built from it. Cached kernels are read-only. lat receives
// the assemble stage's latency: one observation per build, none per hit.
type kernelCache struct {
	mu  sync.Mutex
	lru *lru.Cache[kernelDigest, *gpa.Kernel]
	lat *obs.StageLatency
}

func newKernelCache(lat *obs.StageLatency) *kernelCache {
	return &kernelCache{lru: lru.New[kernelDigest, *gpa.Kernel](kernelCacheEntries, kernelCacheBytes), lat: lat}
}

// scratchPool recycles the per-request byte buffers: the key material
// hashed here and the response head handleOne appends.
var scratchPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledScratch keeps one multi-megabyte submission from pinning a
// buffer of its size in the pool.
const maxPooledScratch = 64 << 10

func putScratch(bufp *[]byte, used []byte) {
	if cap(used) <= maxPooledScratch {
		*bufp = used[:0]
		scratchPool.Put(bufp)
	}
}

// kernelKey digests everything the built kernel depends on: which
// loader, the launch as resolved by the request defaults (the entry as
// submitted: the loader resolves an empty one from the source alone),
// and the source bytes, each variable-length field length-prefixed.
func kernelKey[S string | []byte](kind kernelSource, src S, l gpa.Launch) kernelDigest {
	bufp := scratchPool.Get().(*[]byte)
	b := append((*bufp)[:0], byte(kind))
	for _, v := range [...]int{
		l.GridX, l.GridY, l.GridZ, l.BlockX, l.BlockY, l.BlockZ,
		l.RegsPerThread, l.SharedMemPerBlock, len(l.Entry),
	} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	b = append(b, l.Entry...)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(src)))
	b = append(b, src...)
	key := sha256.Sum256(b)
	putScratch(bufp, b)
	return key
}

// cachedKernel returns the kernel load builds from src, shared with
// every equal submission still in the cache. Only a miss runs load, and
// only a miss is timed as the assemble stage, failed builds included.
func cachedKernel[S string | []byte](c *kernelCache, kind kernelSource, src S, l gpa.Launch,
	load func(S, gpa.Launch) (*gpa.Kernel, error)) (*gpa.Kernel, error) {
	key := kernelKey(kind, src, l)
	if k, ok := c.load(key); ok {
		return k, nil
	}
	start := time.Now()
	k, err := load(src, l)
	c.lat.Since(obs.StageAssemble, start)
	if err != nil {
		return nil, err
	}
	return c.store(key, k, len(src)), nil
}

func (c *kernelCache) load(key kernelDigest) (*gpa.Kernel, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Get(key)
}

// store publishes a successfully built kernel and returns the one to
// use: when a concurrent equal submission got there first, its kernel,
// so all of them share one program and one set of memos. Failed builds
// never get here, so errors are never cached.
func (c *kernelCache) store(key kernelDigest, k *gpa.Kernel, sourceBytes int) *gpa.Kernel {
	c.mu.Lock()
	defer c.mu.Unlock()
	if resident, ok := c.lru.Get(key); ok {
		return resident
	}
	c.lru.Add(key, k, int64(sourceBytes))
	return k
}
