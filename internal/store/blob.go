package store

import (
	"bytes"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
)

// Blob framing. Every on-disk artifact is a self-describing envelope:
//
//	magic   [8]byte  "GPASTOR1" (framing version; bump on layout change)
//	schema  u16 len + bytes     (caller's payload-schema string)
//	stage   u16 len + bytes     (pipeline stage name)
//	key     [32]byte            (the content-addressed stage key)
//	payload u64 len + bytes
//	sum     [32]byte            (SHA-256 over everything above)
//
// The schema, stage, and key ride inside the checksummed region, so a
// blob filed under another key, served for another stage, or written by
// a build with a different payload schema fails verification exactly
// like a bit flip: decode returns an error and the store reports a
// miss. Lengths are bounded before any allocation, so hostile or
// truncated bytes can never make decode panic or balloon.

var blobMagic = [8]byte{'G', 'P', 'A', 'S', 'T', 'O', 'R', '1'}

const (
	// maxNameLen bounds the schema and stage strings in the framing.
	maxNameLen = 1 << 10
	// maxPayloadLen bounds a payload decode will allocate for. Profiles
	// for the bundled corpus are a few hundred KB; 1 GiB is far above
	// any legitimate artifact while still refusing a forged length that
	// would attempt an absurd allocation.
	maxPayloadLen = 1 << 30
)

// errCorrupt tags every verification failure; decodeBlob wraps it with
// the specific cause for logs and tests.
var errCorrupt = errors.New("store: corrupt blob")

// EncodeBlob frames a payload exactly as Put writes it; the returned
// slice is freshly allocated. Exported for offline tooling and for
// fault-injection tests that need to plant checksum-valid blobs with
// hostile identities or payloads; normal callers go through Put.
// Schema and stage names are caller-owned constants; exceeding the
// framing bound is a programming error, not a runtime condition.
func EncodeBlob(schema, stage string, key Key, payload []byte) []byte {
	if len(schema) > maxNameLen || len(stage) > maxNameLen {
		panic("store: schema/stage name exceeds framing bound")
	}
	n := len(blobMagic) + 2 + len(schema) + 2 + len(stage) + len(key) + 8 + len(payload) + sha256.Size
	b := make([]byte, 0, n)
	b = append(b, blobMagic[:]...)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(schema)))
	b = append(b, schema...)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(stage)))
	b = append(b, stage...)
	b = append(b, key[:]...)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(payload)))
	b = append(b, payload...)
	sum := sha256.Sum256(b)
	return append(b, sum[:]...)
}

// blobHeader is the parsed front of a frame: everything before the
// payload bytes. The byte fields alias the parsed input.
type blobHeader struct {
	schema, stage []byte
	key           Key
	payloadLen    int64 // at most maxPayloadLen
	size          int   // header bytes: the payload starts here
}

// maxHeaderLen is the longest header the framing allows.
const maxHeaderLen = len(blobMagic) + 2 + maxNameLen + 2 + maxNameLen + len(Key{}) + 8

// frameLen is the length of the whole frame: header, payload, checksum.
func (h blobHeader) frameLen() int64 { return int64(h.size) + h.payloadLen + sha256.Size }

// errShortHeader: the input ends inside a header that is well-formed
// as far as it goes — what a torn or still-growing log tail looks like.
var errShortHeader = fmt.Errorf("%w: truncated header", errCorrupt)

// startsWithMagic reports whether data begins with the frame magic, or
// ends inside it.
func startsWithMagic(data []byte) bool {
	n := min(len(data), len(blobMagic))
	return bytes.Equal(data[:n], blobMagic[:n])
}

// parseHeader parses the front of a frame, bounding every length before
// anything is sized by it. It is the one header parse: decodeBlob
// verifies a whole frame behind it, and the log scanner (disk.go) reads
// nothing but headers. errShortHeader means data ran out first; any
// other error means no frame starts with these bytes.
func parseHeader(data []byte) (blobHeader, error) {
	if !startsWithMagic(data) {
		return blobHeader{}, fmt.Errorf("%w: bad magic", errCorrupt)
	}
	var h blobHeader
	off := len(blobMagic)
	for _, name := range [...]*[]byte{&h.schema, &h.stage} {
		if len(data) < off+2 {
			return blobHeader{}, errShortHeader
		}
		n := int(binary.LittleEndian.Uint16(data[off:]))
		if off += 2; n > maxNameLen {
			return blobHeader{}, fmt.Errorf("%w: name length out of bounds", errCorrupt)
		}
		if len(data) < off+n {
			return blobHeader{}, errShortHeader
		}
		*name, off = data[off:off+n], off+n
	}
	if len(data) < off+len(h.key)+8 {
		return blobHeader{}, errShortHeader
	}
	h.key = Key(data[off:])
	plen := binary.LittleEndian.Uint64(data[off+len(h.key):])
	if plen > maxPayloadLen {
		return blobHeader{}, fmt.Errorf("%w: payload length out of bounds", errCorrupt)
	}
	h.payloadLen, h.size = int64(plen), off+len(h.key)+8
	return h, nil
}

// decodeBlob verifies a framed blob against the expected schema, stage,
// and key and returns its payload (aliasing data). Any mismatch —
// framing, lengths, identity, or checksum — returns an error wrapping
// errCorrupt; decode never panics on arbitrary input.
func decodeBlob(data []byte, schema, stage string, key Key) ([]byte, error) {
	h, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	if int64(len(data)) != h.frameLen() {
		return nil, fmt.Errorf("%w: %d bytes where the header frames %d", errCorrupt, len(data), h.frameLen())
	}
	body, sum := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	want := sha256.Sum256(body)
	if subtle.ConstantTimeCompare(sum, want[:]) != 1 {
		return nil, fmt.Errorf("%w: checksum mismatch", errCorrupt)
	}
	// The identity check comes after the checksum so the error names the
	// real cause: a checksum-valid blob under the wrong identity is a
	// misfiled blob, not a damaged one.
	if string(h.schema) != schema || string(h.stage) != stage || h.key != key {
		return nil, fmt.Errorf("%w: a %q %s blob of key %x…, want %q %s %x…",
			errCorrupt, h.schema, h.stage, h.key[:4], schema, stage, key[:4])
	}
	return body[h.size:], nil
}
