// Package store is the per-stage content-addressed artifact store
// behind the service engine. Each Figure 2 pipeline stage — measure,
// profile, blame/advise — caches its output independently under a
// SHA-256 stage key, so later requests (or a restarted daemon) reuse
// everything upstream of the first stage whose inputs actually changed.
//
// Two backends share one contract:
//
//   - Memory: a bounded per-stage LRU of artifacts in the form they are
//     served in. Cheap, process-local, and the engine's one cache. It
//     holds served stages only, each artifact built from the payload
//     bytes the Disk backend stores.
//   - Disk: one append-only log per stage under a versioned directory
//     (<dir>/v2/<schema>/<stage>.log), each blob one frame in it: a
//     schema-versioned envelope with a SHA-256 checksum trailer. A Put
//     is a single O_APPEND write on a descriptor opened once — creating
//     a file per blob (temp file, rename, a fan-out directory) was the
//     costliest thing a cold request did outside the simulator, 0.4 to
//     1.3 ms a blob against ~55 us for the same bytes appended (bench/'s
//     store.disk_put_us, docs/ARCHITECTURE.md). A Get looks
//     the key up in an in-memory index (key -> the span of its newest
//     frame, ~100 B a blob), preads exactly that span, and verifies the
//     whole frame — checksum, schema, stage, key — before a single
//     payload byte is believed. The index is never written down: it is
//     built from frame headers alone, by the one scan that also picks
//     up this handle's and other processes' appends (when a lookup
//     misses and the log has grown), so there is nothing to keep in
//     step with the log and a restart costs one header-only pass at a
//     stage's first use. A Disk holds its logs open: Close it.
//
// Corruption contract: the disk store is a cache, not a database. A
// blob that is torn, truncated, bit-flipped, framed under the wrong
// schema or stage, checksum-mismatched, or in a log that is simply
// unreadable is reported as a miss (and counted in Stats.Corrupt —
// by the read that rejects it, or by the scan that has to step over
// it to the next frame), never as an error and never as wrong bytes;
// the caller recomputes and Puts it again, and the new frame, being
// later in the log, is the one every later lookup and scan finds. A
// failed or short append is a counted Errors and at worst one more
// torn frame. Callers that decode payloads further must uphold the
// same rule and call Disk.NoteCorrupt when a payload fails their own
// validation.
package store

// Key is a content-addressed artifact key: a raw SHA-256 of the
// stage's inputs. The producing layer (internal/service) derives every
// stage's from one labeled, length-prefixed field list under a
// versioned schema, so keys from different layouts can never alias.
type Key [32]byte

// Stage names for the Figure 2 pipeline artifacts. A stage name names
// the stage's log and rides in every blob's framing, so a blob can
// never be replayed as a different stage's artifact.
const (
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
	// Corrupt counts blobs rejected by verification — torn, truncated,
	// bit-flipped, wrong schema, wrong stage or key, unreadable — and
	// degraded to misses, and damaged stretches of a log a scan stepped
	// over. (Memory backend: always 0.)
	Corrupt int64 `json:"corrupt"`
	// Errors counts write-side failures (a full disk loses cache
	// entries, never correctness).
	Errors int64 `json:"errors"`
	// Evictions counts memory-backend LRU evictions. (Disk: always 0.)
	Evictions int64 `json:"evictions"`
}
