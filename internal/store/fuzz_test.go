package store

import (
	"bytes"
	"crypto/sha256"
	"os"
	"path/filepath"
	"testing"
)

// FuzzBlobDecode throws arbitrary bytes at the blob verifier. The
// contract under fuzzing: decode never panics, never over-allocates
// from a forged length, and accepts a blob only when it is the exact
// framing of some payload under the expected identity — in which case
// the returned payload must round-trip byte-identically.
func FuzzBlobDecode(f *testing.F) {
	key := sha256.Sum256([]byte("fuzz-key"))
	// Seed with a valid blob, near-miss mutations, and framing edges.
	valid := EncodeBlob("fuzz-schema/1", StageProfile, key, []byte(`{"elapsedMs":1.5,"profile":{}}`))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte("GPASTOR1"))
	flipped := append([]byte{}, valid...)
	flipped[len(flipped)/3] ^= 0x01
	f.Add(flipped)
	f.Add(EncodeBlob("fuzz-schema/2", StageProfile, key, []byte("wrong schema")))
	f.Add(EncodeBlob("fuzz-schema/1", StageMeasure, key, []byte("wrong stage")))
	f.Add(EncodeBlob("fuzz-schema/1", StageProfile, Key{}, []byte("wrong key")))
	f.Add(EncodeBlob("fuzz-schema/1", StageProfile, key, nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := decodeBlob(data, "fuzz-schema/1", StageProfile, key)
		if err != nil {
			return
		}
		// Anything decode accepts must be the canonical encoding of its
		// own payload: re-encoding reproduces the input bytes exactly.
		if !bytes.Equal(EncodeBlob("fuzz-schema/1", StageProfile, key, payload), data) {
			t.Fatalf("accepted blob is not canonical for its payload (%d bytes)", len(data))
		}
	})
}

// FuzzBlobRoundTrip drives the encoder with arbitrary identities and
// payloads: encode must frame anything, and decode must verify its own
// output and return the payload bytes unchanged.
func FuzzBlobRoundTrip(f *testing.F) {
	f.Add("schema/1", StageMeasure, []byte("k"), []byte(`{"cycles":1}`))
	f.Add("", "", []byte{}, []byte{})
	f.Add("gpa-stage/1+gpa-service-key/2", StageAdvice, []byte("another key seed"),
		[]byte(`{"elapsedMs":0.5,"report":"r","advice":{"kernel":"k","entries":null}}`))

	f.Fuzz(func(t *testing.T, schema, stage string, keySeed, payload []byte) {
		if len(schema) > maxNameLen || len(stage) > maxNameLen {
			return // encoder rejects these by panic: programmer error, not input
		}
		key := Key(sha256.Sum256(keySeed))
		blob := EncodeBlob(schema, stage, key, payload)
		got, err := decodeBlob(blob, schema, stage, key)
		if err != nil {
			t.Fatalf("decode of fresh encoding failed: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("payload mutated in round trip: %q -> %q", payload, got)
		}
		// A foreign identity must never verify.
		if schema != "other" {
			if _, err := decodeBlob(blob, "other", stage, key); err == nil {
				t.Fatal("blob verified under a different schema")
			}
		}
	})
}

// FuzzLogScan hands the scanner arbitrary bytes as a stage log. Under
// fuzzing: no panic; every span it indexes lies inside the file and
// frames its key, in an index no bigger than the file has room for,
// through a bounded window (checkIndex); and every Get — of every key a
// header anywhere in the bytes could name, which covers every key
// indexed — is a hit on bytes that are the canonical frame of their
// payload, or a counted miss.
func FuzzLogScan(f *testing.F) {
	const schema = "fuzz-schema/1"
	k1, k2, k3 := Key(sha256.Sum256([]byte("1"))), Key(sha256.Sum256([]byte("2"))), Key(sha256.Sum256([]byte("3")))
	f1 := EncodeBlob(schema, StageProfile, k1, []byte(`{"kernel":"one"}`))
	f2 := EncodeBlob(schema, StageProfile, k2, nil)
	f3 := EncodeBlob(schema, StageProfile, k3, bytes.Repeat([]byte("three "), 40))
	f.Add(join(f1, f2, f3))
	f.Add(join(f1, f2, f3[:len(f3)-9]))                                    // a torn tail
	f.Add(join(f1, f3[:30], f2))                                           // a tear in the middle
	f.Add(join(EncodeBlob(schema, StageProfile, k3, join(f1, f2)), f2))    // frames inside a payload
	f.Add(join(f1, EncodeBlob("other/1", StageProfile, k2, nil), f1, f3))  // an alien frame, a repeated key
	f.Add(join(f1[:len(f1)-1], f2, bytes.Repeat(blobMagic[:], 9), f3[:5])) // damage around a good frame

	dir := f.TempDir() // one per fuzz worker: an execution is a rewrite of its log
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Open(dir, schema)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		if err := os.WriteFile(filepath.Join(d.Dir(), StageProfile+".log"), data, 0o666); err != nil {
			t.Fatal(err)
		}
		d.Locate(StageProfile, Key{}) // a scan, before any read tidies up after it
		checkIndex(t, d, StageProfile, data)
		keys := []Key{k1, k2, k3}
		for i := range data {
			if h, err := parseHeader(data[i:min(len(data), i+maxHeaderLen)]); err == nil {
				keys = append(keys, h.key)
			}
		}
		for _, key := range keys {
			before := d.Stats()
			payload, ok := d.Get(StageProfile, key)
			after := d.Stats()
			if !ok {
				if after.Misses != before.Misses+1 || after.Hits != before.Hits {
					t.Fatalf("a miss was not counted as one: %+v -> %+v", before, after)
				}
				continue
			}
			if after.Hits != before.Hits+1 || !bytes.Contains(data, EncodeBlob(schema, StageProfile, key, payload)) {
				t.Fatalf("a hit served %d bytes the log does not frame under that key", len(payload))
			}
		}
		checkIndex(t, d, StageProfile, data)
	})
}
