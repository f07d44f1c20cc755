package gpa

import (
	"fmt"

	"gpa/internal/service"
	"gpa/internal/store"
)

// Store is a persistent per-stage artifact store: every pipeline stage
// the engine runs — simulation cycles, sampled profiles, ranked advice
// — is appended as a checksum-framed blob to its stage's log under one
// directory, so a restarted daemon (or a second engine pointed at the
// same directory) starts warm instead of re-paying every cold miss.
//
// The store is a cache with a strict corruption contract: blobs that
// are truncated, bit-flipped, written by a build with a different
// payload schema, or simply unreadable are treated as misses (counted
// as StoreCorrupt in EngineStats), recomputed, and rewritten — never
// surfaced as errors and never served as wrong bytes. Results served
// through a store are byte-identical to cold runs.
//
// A Store is safe for concurrent use by any number of engines and, on a
// local filesystem, processes (every write is one O_APPEND write of a
// whole blob). Stats snapshots its counters, Dir reports where its logs
// live and CheckWritable probes that directory (gpad's /healthz). It
// holds one open file per stage: Close it after Engine.Shutdown has
// returned for every engine on it. A stage an engine looks up afterwards
// is a miss, a stage it computes is not stored (counted in StoreErrors),
// and neither is an error.
type Store = store.Disk

// OpenStore opens (creating if needed) an artifact store rooted at
// dir. The stage logs live in a versioned subdirectory keyed by the
// engine's stage schema; opening a directory written by an
// incompatible build simply starts cold.
func OpenStore(dir string) (*Store, error) {
	d, err := service.OpenDisk(dir)
	if err != nil {
		return nil, fmt.Errorf("gpa: %w", err)
	}
	return d, nil
}
