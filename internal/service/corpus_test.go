package service_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"os"
	"strconv"
	"testing"

	"gpa/internal/arch"
	"gpa/internal/gpusim"
	"gpa/internal/kernels"
	"gpa/internal/service"
	"gpa/internal/store"
)

// corpusRequests returns an advise request for every Table 3 row's
// baseline kernel on gpu (nil: the V100), as gpad advises a bundled row
// (one simulated SM), and each row's entry.
func corpusRequests(tb testing.TB, gpu *arch.GPU) (reqs []*service.Request, entries []string) {
	tb.Helper()
	for _, b := range kernels.All() {
		k, wl, err := b.Base.Build()
		if err != nil {
			tb.Fatal(err)
		}
		l := k.Launch
		entries = append(entries, l.Entry)
		reqs = append(reqs, &service.Request{
			Kind:   service.KindAdvise,
			Module: k.Module,
			Launch: gpusim.LaunchConfig{
				Entry:             l.Entry,
				Grid:              gpusim.Dim3{X: l.GridX, Y: l.GridY, Z: l.GridZ},
				Block:             gpusim.Dim3{X: l.BlockX, Y: l.BlockY, Z: l.BlockZ},
				RegsPerThread:     l.RegsPerThread,
				SharedMemPerBlock: l.SharedMemPerBlock,
			},
			GPU:    gpu,
			SimSMs: 1, Seed: 11, Parallelism: 1, Workload: wl, WorkloadKey: b.ID(),
		})
	}
	return reqs, entries
}

// corpusPayloads returns the measure, profile and advice payloads of
// every corpus request on gpu, as a disk hit reads them back, and each
// row's entry.
func corpusPayloads(tb testing.TB, gpu *arch.GPU) (measures, profiles, advice [][]byte, entries []string) {
	tb.Helper()
	reqs, entries := corpusRequests(tb, gpu)
	measures, profiles, advice = service.StagePayloads(tb, reqs)
	return measures, profiles, advice, entries
}

// BenchmarkStageDecode prices the part of a disk hit that no bench/
// layer metric reaches — store.disk_get_us stops at the frame check —
// over the corpus: one op decodes every payload of the stage, and MB/s
// is payload bytes.
func BenchmarkStageDecode(b *testing.B) {
	_, profiles, advice, entries := corpusPayloads(b, nil)
	for _, c := range []struct {
		name     string
		decode   func([]byte, string, store.Key) (*service.Response, error)
		payloads [][]byte
	}{
		{"profile", service.DecodeProfile, profiles},
		{"advice", service.DecodeAdvice, advice},
	} {
		b.Run(c.name, func(b *testing.B) {
			n := 0
			for _, p := range c.payloads {
				n += len(p)
			}
			b.SetBytes(int64(n))
			b.ReportAllocs()
			for b.Loop() {
				for i, p := range c.payloads {
					if _, err := c.decode(p, entries[i], store.Key{}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// TestEncodedStageDocuments holds the encoder to what the stage decoder
// does not check, because the store frame's checksum makes a stored
// payload exactly the bytes a run encoded: every document a run writes
// — measure, profile and advice, for every Table 3 row on every
// registered model — is one JSON value that opens in its canonical form
// and decodes as its stage; a profile carries the SHA-256 of its body,
// which its advice blames; and an advice ends in a non-empty report.
func TestEncodedStageDocuments(t *testing.T) {
	for _, gpu := range arch.All() {
		measures, profiles, advice, entries := corpusPayloads(t, gpu)
		for i, entry := range entries {
			var digest string
			for j, doc := range [][]byte{measures[i], profiles[i], advice[i]} {
				var d struct {
					Cycles        int64           `json:"cycles"`
					ElapsedMS     float64         `json:"elapsedMs"`
					ProfileDigest string          `json:"profileDigest"`
					Profile       json.RawMessage `json:"profile"`
					Report        string          `json:"report"`
				}
				if !json.Valid(doc) || json.Unmarshal(doc, &d) != nil {
					t.Fatalf("%s %s: stage %d wrote no JSON value: %.80q", gpu.Name, entry, j, doc)
				}
				open, _ := json.Marshal(struct {
					Cycles        int64   `json:"cycles"`
					ElapsedMS     float64 `json:"elapsedMs"`
					ProfileDigest string  `json:"profileDigest,omitempty"`
				}{d.Cycles, d.ElapsedMS, d.ProfileDigest})
				if !bytes.HasPrefix(doc, open[:len(open)-1]) {
					t.Errorf("%s %s: stage %d opens %.80q, not canonically", gpu.Name, entry, j, doc)
				}
				var err error
				switch j {
				case 0:
					if string(doc) != string(open)+"\n" {
						t.Errorf("%s %s: measure %q carries more than its opening", gpu.Name, entry, doc)
					}
					_, err = service.DecodeMeasure(doc)
				case 1:
					sum := sha256.Sum256(d.Profile)
					if digest = hex.EncodeToString(sum[:]); d.ProfileDigest != digest {
						t.Errorf("%s %s: profile declares digest %.16s, its body hashes to %.16s", gpu.Name, entry, d.ProfileDigest, digest)
					}
					_, err = service.DecodeProfile(doc, entry, store.Key{})
				case 2:
					report := service.AppendString([]byte(`,"report":`), d.Report)
					if d.Report == "" || !bytes.HasSuffix(doc, append(report, "}\n"...)) {
						t.Errorf("%s %s: advice does not end in a non-empty report", gpu.Name, entry)
					}
					if d.ProfileDigest != digest {
						t.Errorf("%s %s: advice blames profile %.16s, not the one stored, %.16s", gpu.Name, entry, d.ProfileDigest, digest)
					}
					_, err = service.DecodeAdvice(doc, entry, store.Key{})
				}
				if err != nil {
					t.Errorf("%s %s: %v", gpu.Name, entry, err)
				}
			}
		}
	}
}

// frameFields returns where each field of a store frame starts, and its
// end: magic, schema length, schema, stage length, stage, key, payload
// length, payload, checksum (internal/store's blob framing).
func frameFields(frame []byte) []int {
	at := []int{0, 8, 10}
	schema := int(binary.LittleEndian.Uint16(frame[8:]))
	at = append(at, 10+schema, 12+schema)
	stage := int(binary.LittleEndian.Uint16(frame[10+schema:]))
	key := 12 + schema + stage
	at = append(at, key, key+32, key+40, len(frame)-sha256.Size, len(frame))
	return at
}

// TestStoredByteFlipsNeverServed flips, one at a time, every byte of one
// stored profile frame and one stored advice frame — each with another
// frame after it, so a flipped length reads as damage and not as a log
// tail still being written — and reads the key back through a fresh
// handle: every flip is a miss, never served bytes, and every flip
// outside the key is counted corrupt (a flipped key byte files the
// frame under a key nobody asks for). At the first and last byte of every field a fresh
// engine over the damaged store recomputes the stage and answers as the
// cold run did. The frame's checksum is all that stands between those
// bytes and a response: the stage decoder reads no more than a
// document's opening and fixed bytes.
func TestStoredByteFlipsNeverServed(t *testing.T) {
	if testing.Short() {
		t.Skip("flips every byte of two stored frames")
	}
	reqs, _ := corpusRequests(t, nil)
	dir := t.TempDir()
	openStore := func() *store.Disk {
		t.Helper()
		d, err := service.OpenDisk(dir)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	cases := []struct {
		stage string
		kind  service.Kind
	}{{store.StageProfile, service.KindProfile}, {store.StageAdvice, service.KindAdvise}}
	// result is what a response answers, less its elapsedMs: a recompute
	// times its own run.
	result := func(r *service.Response) string {
		tail := r.Tail()
		return strconv.FormatInt(r.Cycles, 10) + string(tail[bytes.Index(tail, []byte(`,"profileDigest":`)):])
	}
	d := openStore()
	e := service.New(service.Options{Workers: 1, Store: d})
	for _, r := range reqs[:2] {
		if _, err := e.Do(context.Background(), r); err != nil {
			t.Fatal(err)
		}
	}
	colds := map[string]string{}
	for _, c := range cases {
		r := *reqs[0]
		r.Kind = c.kind
		resp, err := e.Do(context.Background(), &r)
		if err != nil {
			t.Fatal(err)
		}
		colds[c.stage] = result(resp)
	}
	d.Close()

	for _, c := range cases {
		r := *reqs[0]
		r.Kind = c.kind
		key := service.StageKey(t, &r, c.stage)
		d := openStore()
		path, off, n, ok := d.Locate(c.stage, key)
		d.Close()
		if !ok {
			t.Fatalf("no stored %s frame", c.stage)
		}
		log, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(log)) == off+n {
			t.Fatalf("the %s frame is the last in its log", c.stage)
		}
		frame := log[off : off+n]
		fields := frameFields(frame)
		ends := map[int]bool{}
		for i, at := range fields[:len(fields)-1] {
			ends[at], ends[fields[i+1]-1] = true, true
		}
		keyAt := fields[5]
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		write := func(b []byte, at int) {
			t.Helper()
			if _, err := f.WriteAt(b, off+int64(at)); err != nil {
				t.Fatal(err)
			}
		}
		for i := range frame {
			write([]byte{frame[i] ^ 0x01}, i)
			d := openStore()
			if payload, ok := d.Get(c.stage, key); ok {
				t.Fatalf("%s: byte %d flipped, and the store served %d bytes", c.stage, i, len(payload))
			}
			inKey := keyAt <= i && i < keyAt+len(key)
			if corrupt := d.Stats().Corrupt; (corrupt == 0) != inKey {
				t.Fatalf("%s: byte %d flipped (key: %v), and %d corrupt counted", c.stage, i, inKey, corrupt)
			}
			if ends[i] {
				resp, err := service.New(service.Options{Workers: 1, Store: d}).Do(context.Background(), &r)
				if err != nil || resp.Cached || result(resp) != colds[c.stage] {
					t.Fatalf("%s: byte %d flipped: a fresh engine answered %v, cached=%v, as the cold run=%v",
						c.stage, i, err, err == nil && resp.Cached, err == nil && result(resp) == colds[c.stage])
				}
			}
			d.Close()
			// Undo the flip, and any frame a recompute appended.
			write(frame[i:i+1], i)
			if err := f.Truncate(int64(len(log))); err != nil {
				t.Fatal(err)
			}
		}
	}
}
