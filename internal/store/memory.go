package store

import (
	"sync"

	"gpa/internal/lru"
)

// Memory is the in-process artifact backend: one bounded LRU per
// stage, holding artifacts (any) in the form their consumer serves. It
// fronts the Disk backend — a disk hit is decoded once and re-added
// here. Safe for concurrent use.
type Memory struct {
	cap int
	mu  sync.Mutex
	// stages lazily creates one LRU per stage name; the engine uses a
	// small fixed set of stages, so this stays tiny.
	stages map[string]*lru.Cache[Key, any]

	hits, misses, puts, evictions int64
}

// NewMemory builds a memory backend holding up to entriesPerStage
// artifacts per stage (0 = 512); a negative bound disables the backend
// entirely and NewMemory returns nil (nil *Memory is a valid no-op
// receiver for Get/Add/Stats).
func NewMemory(entriesPerStage int) *Memory {
	if entriesPerStage < 0 {
		return nil
	}
	if entriesPerStage == 0 {
		entriesPerStage = 512
	}
	return &Memory{cap: entriesPerStage, stages: map[string]*lru.Cache[Key, any]{}}
}

// Get returns the artifact for (stage, key) and marks it most recently
// used.
func (m *Memory) Get(stage string, key Key) (any, bool) {
	if m == nil {
		return nil, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if l := m.stages[stage]; l != nil {
		if v, ok := l.Get(key); ok {
			m.hits++
			return v, true
		}
	}
	m.misses++
	return nil, false
}

// Add stores the artifact for (stage, key) unless one is already
// present, and returns the artifact actually under the key (the
// existing one on a race) — LoadOrStore semantics, so concurrent
// producers of one key converge on a single shared artifact.
func (m *Memory) Add(stage string, key Key, v any) any {
	if m == nil {
		return v
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	l := m.stages[stage]
	if l == nil {
		l = lru.New[Key, any](m.cap, 0)
		m.stages[stage] = l
	}
	if existing, ok := l.Get(key); ok {
		return existing
	}
	m.puts++
	m.evictions += int64(l.Add(key, v, 0))
	return v
}

// Stats snapshots the memory counters (zero for a nil receiver).
func (m *Memory) Stats() Stats {
	if m == nil {
		return Stats{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{Hits: m.hits, Misses: m.misses, Puts: m.puts, Evictions: m.evictions}
}
