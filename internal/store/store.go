// Package store is the per-stage content-addressed artifact store
// behind the service engine. Each Figure 2 pipeline stage — measure,
// profile, blame/advise — caches its output independently under a
// SHA-256 stage key, so later requests (or a restarted daemon, or the
// arch-dependent half of a sweep) reuse everything upstream of the
// first stage whose inputs actually changed.
//
// Two backends share one contract:
//
//   - Memory: a bounded per-stage LRU of artifacts in the form they are
//     served in. Cheap, process-local, the engine's one cache, and the
//     only backend for artifacts that cannot be serialized (the module
//     front-end's Program/Structure memo).
//   - Disk: digest-named blobs under a versioned directory layout.
//     Writes are atomic (temp file + rename in the same directory), so
//     concurrent writers and a crash mid-write can never publish a
//     torn blob; reads verify a framed, schema-versioned envelope with
//     a SHA-256 checksum trailer before a single payload byte is
//     believed.
//
// Corruption contract: the disk store is a cache, not a database. A
// blob that is truncated, bit-flipped, framed under the wrong schema
// or stage, checksum-mismatched, or simply unreadable is reported as a
// miss (and counted in Stats.Corrupt), never as an error and never as
// wrong bytes; the caller recomputes and rewrites it. Callers that
// decode payloads further must uphold the same rule and call
// Disk.NoteCorrupt when a payload fails their own validation.
package store

// Key is a content-addressed artifact key: a raw SHA-256 of the
// stage's inputs. The producing layer (internal/service) derives every
// stage's from one labeled, length-prefixed field list under a
// versioned schema, so keys from different layouts can never alias.
type Key [32]byte

// Stage names for the Figure 2 pipeline artifacts. Stage names are
// part of both the on-disk layout and the blob framing, so a blob can
// never be replayed as a different stage's artifact.
const (
	// StageFrontend is the arch-independent module front-end (flattened
	// Program + CFG/loop Structure). Memory-only: the artifacts are
	// pointer graphs into the module and are rebuilt, not deserialized.
	StageFrontend = "frontend"
	// StageMeasure is a cycles-only simulation result.
	StageMeasure = "measure"
	// StageProfile is a sampled profile (canonical JSON payload).
	StageProfile = "profile"
	// StageAdvice is the blame/advise output: ranked advice entries
	// plus the rendered Figure 8 report text.
	StageAdvice = "advice"
)

// Stats is a point-in-time snapshot of a backend's counters.
type Stats struct {
	// Hits counts artifact lookups that returned a value.
	Hits int64 `json:"hits"`
	// Misses counts lookups that found nothing (including corrupt
	// blobs, which are also counted in Corrupt).
	Misses int64 `json:"misses"`
	// Puts counts artifacts written.
	Puts int64 `json:"puts"`
	// Corrupt counts blobs rejected by verification — truncated,
	// bit-flipped, wrong schema, wrong stage or key, unreadable — and
	// degraded to misses. (Memory backend: always 0.)
	Corrupt int64 `json:"corrupt"`
	// Errors counts write-side failures (a full disk loses cache
	// entries, never correctness).
	Errors int64 `json:"errors"`
	// Evictions counts memory-backend LRU evictions. (Disk: always 0.)
	Evictions int64 `json:"evictions"`
}
