package main

import (
	"encoding/binary"
	"hash/maphash"
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
// default, and as many kept source bytes as one request body may carry.
const (
	kernelCacheEntries = 512
	kernelCacheBytes   = maxBodyBytes
)

// kernelSource tags how a cached kernel's source was spelled and which
// loader built it, so an asm text and a binary blob of equal bytes —
// or an asm string before and after its JSON escapes are undone — can
// never share an entry.
type kernelSource byte

const (
	// sourceAsm is asm text as encoding/json decoded it (a body the
	// one-pass decoder declined, a batch or sweep entry).
	sourceAsm kernelSource = iota + 1
	// sourceAsmRaw is asm text as the body spelled it: the JSON
	// string's bytes between its quotes, escapes included.
	sourceAsmRaw
	sourceBinary
)

// kernelSeed seeds every kernel key of the process.
var kernelSeed = maphash.MakeSeed()

// kernelEntry is a cached kernel and the material its key was derived
// from, which a hit must equal byte for byte: the key is only a hash.
type kernelEntry struct {
	kind   kernelSource
	launch gpa.Launch
	src    string
	kernel *gpa.Kernel
}

// kernelCache maps a submission's kernelKey to the shared *gpa.Kernel
// built from it. Cached kernels are read-only. lat receives the
// assemble stage's latency: one observation per build, none per hit.
type kernelCache struct {
	mu  sync.Mutex
	lru *lru.Cache[uint64, kernelEntry]
	lat *obs.StageLatency
}

func newKernelCache(lat *obs.StageLatency) *kernelCache {
	return &kernelCache{lru: lru.New[uint64, kernelEntry](kernelCacheEntries, kernelCacheBytes), lat: lat}
}

// scratchPool recycles the per-request byte buffers: the request body
// decodeKernel reads and the response head handleOne appends.
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

// kernelKey hashes everything the built kernel depends on: how the
// source is spelled, the launch as resolved by the request defaults
// (the entry as submitted: the loader resolves an empty one from the
// source alone), and the source bytes, each variable-length field
// length-prefixed. One pass over src; nothing is copied.
func kernelKey[S string | []byte](kind kernelSource, l gpa.Launch, src S) uint64 {
	var h maphash.Hash
	h.SetSeed(kernelSeed)
	var b [1 + 10*8]byte
	b[0] = byte(kind)
	for i, v := range [...]int{
		l.GridX, l.GridY, l.GridZ, l.BlockX, l.BlockY, l.BlockZ,
		l.RegsPerThread, l.SharedMemPerBlock, len(l.Entry), len(src),
	} {
		binary.LittleEndian.PutUint64(b[1+8*i:], uint64(v))
	}
	h.Write(b[:])
	h.WriteString(l.Entry)
	switch s := any(src).(type) {
	case string:
		h.WriteString(s)
	case []byte:
		h.Write(s)
	}
	return h.Sum64()
}

// probe returns the kernel cached for exactly (kind, l, src), or nil,
// and the key the submission hashes to.
func probe[S string | []byte](c *kernelCache, kind kernelSource, l gpa.Launch, src S) (*gpa.Kernel, uint64) {
	key := kernelKey(kind, l, src)
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.lru.Get(key); ok && e.kind == kind && e.launch == l && e.src == string(src) {
		return e.kernel, key
	}
	return nil, key
}

// cachedKernel returns the kernel load builds, shared with every
// submission of equal (kind, l, src) still in the cache. Only a miss
// runs load, and only a miss is timed as the assemble stage, failed
// builds included.
func cachedKernel[S string | []byte](c *kernelCache, kind kernelSource, l gpa.Launch, src S,
	load func() (*gpa.Kernel, error)) (*gpa.Kernel, error) {
	k, key := probe(c, kind, l, src)
	if k != nil {
		return k, nil
	}
	start := time.Now()
	k, err := load()
	c.lat.Since(obs.StageAssemble, start)
	if err != nil {
		return nil, err
	}
	return c.store(key, kernelEntry{kind: kind, launch: l, src: string(src), kernel: k}), nil
}

// store publishes a successfully built kernel and returns the one to
// use: when a concurrent equal submission got there first, its kernel,
// so all of them share one program and one set of memos. Failed builds
// never get here, so errors are never cached. An entry costs the
// source and entry bytes it keeps.
func (c *kernelCache) store(key uint64, e kernelEntry) *gpa.Kernel {
	c.mu.Lock()
	defer c.mu.Unlock()
	if resident, ok := c.lru.Get(key); ok && resident.kind == e.kind && resident.launch == e.launch && resident.src == e.src {
		return resident.kernel
	}
	c.lru.Add(key, e, int64(len(e.src)+len(e.launch.Entry)))
	return e.kernel
}
