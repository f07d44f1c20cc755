package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

const testSchema = "store-test/1"

func testKey(s string) Key { return sha256.Sum256([]byte(s)) }

// openAt opens a store at dir and closes it with the test.
func openAt(t testing.TB, dir string) *Disk {
	t.Helper()
	d, err := Open(dir, testSchema)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func openTestDisk(t testing.TB) *Disk { return openAt(t, t.TempDir()) }

// logPath is where a store opened at dir keeps a stage's log.
func logPath(dir, stage string) string {
	return filepath.Join(dir, layoutVersion, slug(testSchema), stage+".log")
}

// editFrame rewrites, in its log, the span holding the newest frame of
// (stage, key): the bytes before and after it stay, edit's result takes
// its place (any length). The file is rewritten in place, so a handle
// that has it open sees the edit.
func editFrame(t *testing.T, d *Disk, stage string, key Key, edit func(frame []byte) []byte) {
	t.Helper()
	path, off, n, ok := d.Locate(stage, key)
	if !ok {
		t.Fatalf("no %s frame to edit", stage)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frame := bytes.Clone(data[off : off+n])
	out := append(bytes.Clone(data[:off]), edit(frame)...)
	if err := os.WriteFile(path, append(out, data[off+n:]...), 0o666); err != nil {
		t.Fatal(err)
	}
}

func mustHit(t *testing.T, d *Disk, stage string, key Key, want []byte) {
	t.Helper()
	if got, ok := d.Get(stage, key); !ok || !bytes.Equal(got, want) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, want)
	}
}

func TestDiskRoundTrip(t *testing.T) {
	d := openTestDisk(t)
	key := testKey("k1")
	payload := []byte(`{"cycles":12345}`)

	if _, ok := d.Get(StageMeasure, key); ok {
		t.Fatal("empty store returned a hit")
	}
	d.Put(StageMeasure, key, payload)
	mustHit(t, d, StageMeasure, key, payload)
	st := d.Stats()
	if st.Puts != 1 || st.Hits != 1 || st.Misses != 1 || st.Corrupt != 0 || st.Errors != 0 {
		t.Errorf("stats = %+v, want 1 put, 1 hit, 1 miss", st)
	}
}

func TestDiskStagesAndKeysAreDisjoint(t *testing.T) {
	d := openTestDisk(t)
	key := testKey("k1")
	d.Put(StageMeasure, key, []byte("measure-bytes"))
	if _, ok := d.Get(StageProfile, key); ok {
		t.Error("measure blob served for the profile stage")
	}
	if _, ok := d.Get(StageMeasure, testKey("k2")); ok {
		t.Error("blob served for a different key")
	}
}

func TestDiskSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	key := testKey("k1")
	payload := []byte("persist me")
	d1 := openAt(t, dir)
	d1.Put(StageAdvice, key, payload)
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}
	mustHit(t, openAt(t, dir), StageAdvice, key, payload)
}

func TestDiskSchemaBumpStartsCold(t *testing.T) {
	dir := t.TempDir()
	key := testKey("k1")
	d1, err := Open(dir, "schema/1")
	if err != nil {
		t.Fatal(err)
	}
	defer d1.Close()
	d1.Put(StageMeasure, key, []byte("old-schema"))

	d2, err := Open(dir, "schema/2")
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if _, ok := d2.Get(StageMeasure, key); ok {
		t.Fatal("new-schema store served an old-schema blob")
	}
	// Different schemas live under different slugs, so this is a plain
	// miss, not corruption.
	if st := d2.Stats(); st.Corrupt != 0 {
		t.Errorf("schema bump counted corruption: %+v", st)
	}
}

// A tree an earlier layout left behind is never opened, whatever is in it.
func TestDiskIgnoresOlderLayout(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "v1", slug(testSchema), StageMeasure, "ab")
	if err := os.MkdirAll(old, 0o777); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(old, "abcdef"), []byte("a v1 blob"), 0o666); err != nil {
		t.Fatal(err)
	}
	d := openAt(t, dir)
	d.Put(StageMeasure, testKey("k"), []byte("p"))
	mustHit(t, d, StageMeasure, testKey("k"), []byte("p"))
	if st := d.Stats(); st.Corrupt != 0 || st.Errors != 0 {
		t.Errorf("a v1 tree beside the store was noticed: %+v", st)
	}
}

// faultCase is one way to damage a stored frame where it lies.
type faultCase struct {
	name   string
	mutate func(t *testing.T, d *Disk, dir string, key Key)
	// wipes: the damage takes the frame's neighbours with it.
	wipes bool
	// breaksMagic: the damage leaves the frame before it followed by
	// bytes that start no frame, and a fresh scan does not believe a
	// frame it cannot see the end of.
	breaksMagic bool
	// silentOnReopen: a handle that indexes the log after the damage
	// cannot tell it from a frame nobody asks for, so the miss is
	// plain. (A handle that indexed it before reads it, and counts.)
	silentOnReopen bool
}

// flip returns a mutation XOR-ing one byte of the frame, at the offset
// at picks from the frame's parsed header.
func flip(at func(h blobHeader, frame []byte) int) func(*testing.T, *Disk, string, Key) {
	return func(t *testing.T, d *Disk, _ string, key Key) {
		editFrame(t, d, StageProfile, key, func(frame []byte) []byte {
			h, err := parseHeader(frame)
			if err != nil {
				t.Fatal(err)
			}
			frame[at(h, frame)] ^= 0x01
			return frame
		})
	}
}

// replace returns a mutation putting other bytes where the frame was.
func replace(with func(key Key, frame []byte) []byte) func(*testing.T, *Disk, string, Key) {
	return func(t *testing.T, d *Disk, _ string, key Key) {
		editFrame(t, d, StageProfile, key, func(frame []byte) []byte { return with(key, frame) })
	}
}

var faultCases = []faultCase{
	{name: "truncated", mutate: replace(func(_ Key, f []byte) []byte { return f[:len(f)/2] })},
	{name: "torn-in-header", mutate: replace(func(_ Key, f []byte) []byte { return f[:20] })},
	{name: "one-byte-short", mutate: replace(func(_ Key, f []byte) []byte { return f[:len(f)-1] })},
	{name: "flipped-magic", mutate: flip(func(blobHeader, []byte) int { return 3 }), breaksMagic: true},
	{name: "flipped-name-length", mutate: flip(func(blobHeader, []byte) int { return len(blobMagic) })},
	{name: "flipped-payload-length", mutate: flip(func(h blobHeader, _ []byte) int { return h.size - 8 })},
	{name: "forged-payload-length", mutate: flip(func(h blobHeader, _ []byte) int { return h.size - 5 })}, // + 16 MiB
	{name: "flipped-key", mutate: flip(func(h blobHeader, _ []byte) int { return h.size - 9 }), silentOnReopen: true},
	{name: "flipped-byte", mutate: flip(func(h blobHeader, f []byte) int { return (h.size + len(f) - sha256.Size) / 2 })},
	{name: "flipped-checksum", mutate: flip(func(_ blobHeader, f []byte) int { return len(f) - 1 })},
	{name: "zeroed", mutate: replace(func(_ Key, f []byte) []byte { return make([]byte, len(f)) }), breaksMagic: true},
	{name: "wrong-schema-version", mutate: replace(func(key Key, _ []byte) []byte {
		// A blob framed under another payload schema where this
		// store's blob lay (e.g. a restore from the wrong backup) must
		// be rejected by the framing, not decoded.
		return EncodeBlob("other-schema/9", StageProfile, key, []byte("imposter"))
	})},
	{name: "misfiled-stage", mutate: replace(func(key Key, _ []byte) []byte {
		return EncodeBlob(testSchema, StageAdvice, key, []byte("advice bytes"))
	})},
	{name: "misfiled-key", silentOnReopen: true, mutate: replace(func(_ Key, _ []byte) []byte {
		return EncodeBlob(testSchema, StageProfile, testKey("somebody else"), []byte("not yours"))
	})},
	{name: "zero-length", wipes: true, silentOnReopen: true, mutate: func(t *testing.T, _ *Disk, dir string, _ Key) {
		if err := os.Truncate(logPath(dir, StageProfile), 0); err != nil {
			t.Fatal(err)
		}
	}},
	{name: "log-cut-mid-frame", wipes: true, mutate: func(t *testing.T, d *Disk, dir string, key Key) {
		_, off, n, _ := d.Locate(StageProfile, key)
		if err := os.Truncate(logPath(dir, StageProfile), off+n/3); err != nil {
			t.Fatal(err)
		}
	}},
}

// TestDiskFaultInjection damages one frame of three in a log, every way
// the table knows, and reads the log both through the handle that wrote
// it (whose index predates the damage) and through a fresh one (which
// indexes the damaged log). Either way the damaged blob is a miss,
// never an error and never wrong bytes; its neighbours are verified
// hits wherever the damage left them framed; the recomputed blob,
// appended after the damage, is the one every later read finds — across
// another reopen, where the stale frame is scanned again and loses; and
// the damage is counted by then, at the read that rejected it or the
// scan that stepped over it.
func TestDiskFaultInjection(t *testing.T) {
	payload := []byte(`{"cycles":98765,"elapsedMs":1.25}`)
	before, after := []byte("the frame before"), []byte("the frame after the victim")
	for _, fc := range faultCases {
		t.Run(fc.name, func(t *testing.T) {
			for _, reopen := range []bool{false, true} {
				variant := "open-handle"
				if reopen {
					variant = "reopened"
				}
				t.Run(variant, func(t *testing.T) {
					dir := t.TempDir()
					d := openAt(t, dir)
					key, kb, ka := testKey("victim/"+fc.name), testKey("before"), testKey("after")
					d.Put(StageProfile, kb, before)
					d.Put(StageProfile, key, payload)
					d.Put(StageProfile, ka, after)
					mustHit(t, d, StageProfile, key, payload)
					fc.mutate(t, d, dir, key)
					if reopen {
						d.Close()
						d = openAt(t, dir)
					}

					if got, ok := d.Get(StageProfile, key); ok {
						t.Fatalf("damaged blob served as a hit: %q", got)
					}
					if st := d.Stats(); st.Misses == 0 {
						t.Errorf("damage must degrade to a miss: %+v", st)
					}
					for k, want := range map[Key][]byte{kb: before, ka: after} {
						got, ok := d.Get(StageProfile, k)
						if ok && !bytes.Equal(got, want) {
							t.Fatalf("a neighbour of the damage served wrong bytes: %q", got)
						}
						// A fresh index finds every frame the damage left
						// whole; the old one may point where the bytes no
						// longer are, which is a miss like any other.
						if !ok && reopen && !fc.wipes && !(fc.breaksMagic && k == kb) {
							t.Errorf("a neighbour of the damage was lost to a fresh scan (%q)", want)
						}
					}

					// The recomputed artifact supersedes the damaged frame
					// and round-trips byte-identically.
					d.Put(StageProfile, key, payload)
					mustHit(t, d, StageProfile, key, payload)
					st := d.Stats()
					if st.Corrupt == 0 && !(reopen && fc.silentOnReopen) {
						t.Errorf("damage not counted: %+v", st)
					}
					if st.Errors != 0 {
						t.Errorf("damage surfaced as write errors: %+v", st)
					}
					d.Close()
					mustHit(t, openAt(t, dir), StageProfile, key, payload)
				})
			}
		})
	}
	t.Run("unreadable", testUnreadableLog)
}

// An unreadable log (tests may run as root, where permission bits do
// not bite, so: a directory where the log should be) makes every Get a
// counted miss and every Put a counted error, and the store serves
// again as soon as the log can be opened.
func testUnreadableLog(t *testing.T) {
	dir := t.TempDir()
	d := openAt(t, dir)
	if err := os.Mkdir(logPath(dir, StageProfile), 0o777); err != nil {
		t.Fatal(err)
	}
	key, payload := testKey("k"), []byte("payload")
	d.Put(StageProfile, key, payload)
	if _, ok := d.Get(StageProfile, key); ok {
		t.Fatal("a directory served a blob")
	}
	if st := d.Stats(); st.Errors != 1 || st.Corrupt != 1 || st.Misses != 1 || st.Puts != 0 {
		t.Errorf("stats = %+v, want 1 error, 1 corrupt miss, 0 puts", st)
	}
	if err := os.Remove(logPath(dir, StageProfile)); err != nil {
		t.Fatal(err)
	}
	d.Put(StageProfile, key, payload)
	mustHit(t, d, StageProfile, key, payload)
}

// A failed append (here ENOSPC, from /dev/full standing in for the log)
// is a counted error, never a panic and never a put.
func TestDiskFailedAppendCounted(t *testing.T) {
	dir := t.TempDir()
	d := openAt(t, dir)
	if err := os.Symlink("/dev/full", logPath(dir, StageProfile)); err != nil {
		t.Skip(err)
	}
	if f, err := os.OpenFile("/dev/full", os.O_WRONLY, 0); err != nil {
		t.Skip(err)
	} else {
		f.Close()
	}
	d.Put(StageProfile, testKey("k"), []byte("payload"))
	if st := d.Stats(); st.Errors != 1 || st.Puts != 0 {
		t.Errorf("stats = %+v, want the failed append counted as 1 error", st)
	}
	if _, ok := d.Get(StageProfile, testKey("k")); ok {
		t.Error("a blob that was never stored was served")
	}
}

// TestDiskTornTailThenGoodAppend: an append that stopped short leaves a
// torn frame at the log's end, and the next append lands right behind
// it. However much of the torn frame is there — part of its header,
// most of its payload, all but its last byte — and whether the good
// frame is shorter or longer than what is missing (so whether the torn
// frame's claimed span ends inside the file or not), the good frame is
// found and the tear is counted once. So is the frame before the tear,
// by the handle that indexed it before the tear and, when the tear left
// a whole magic behind it, by a fresh scan (which believes no frame it
// cannot see the end of: a damaged region can cost the one good frame
// before it, never more).
func TestDiskTornTailThenGoodAppend(t *testing.T) {
	kBefore, kTorn, kGood := testKey("before"), testKey("torn"), testKey("good")
	whole := EncodeBlob(testSchema, StageProfile, kTorn, bytes.Repeat([]byte("torn payload "), 64))
	for _, keep := range []int{1, 5, len(blobMagic), 20, 60, len(whole) / 2, len(whole) - 1} {
		for _, good := range [][]byte{[]byte("short"), bytes.Repeat([]byte("a long good payload "), 128)} {
			t.Run(fmt.Sprintf("keep%d/good%d", keep, len(good)), func(t *testing.T) {
				dir := t.TempDir()
				d := openAt(t, dir)
				d.Put(StageProfile, kBefore, []byte("before"))
				mustHit(t, d, StageProfile, kBefore, []byte("before"))
				f, err := os.OpenFile(logPath(dir, StageProfile), os.O_WRONLY|os.O_APPEND, 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write(whole[:keep]); err != nil {
					t.Fatal(err)
				}
				f.Close()

				// The tail may still be growing: a miss, not yet damage.
				if _, ok := d.Get(StageProfile, kTorn); ok {
					t.Fatal("a torn frame was served")
				}
				if st := d.Stats(); st.Corrupt != 0 {
					t.Errorf("an unfinished tail was counted before anything followed it: %+v", st)
				}
				d.Put(StageProfile, kGood, good)
				for _, h := range []*Disk{d, openAt(t, dir)} {
					mustHit(t, h, StageProfile, kGood, good)
					if h == d || keep >= len(blobMagic) {
						mustHit(t, h, StageProfile, kBefore, []byte("before"))
					}
					if _, ok := h.Get(StageProfile, kTorn); ok {
						t.Fatal("a torn frame was served")
					}
					if st := h.Stats(); st.Corrupt != 1 || st.Errors != 0 {
						t.Errorf("stats = %+v, want the tear counted exactly once", st)
					}
				}
			})
		}
	}
}

// An append another process has not finished looks like a torn tail
// until it is whole: it must then be found, and never have been counted.
func TestDiskAppendInFlightIsNotDamage(t *testing.T) {
	dir := t.TempDir()
	d := openAt(t, dir)
	key, payload := testKey("slow"), bytes.Repeat([]byte("slow writer "), 512)
	frame := EncodeBlob(testSchema, StageProfile, key, payload)
	f, err := os.OpenFile(logPath(dir, StageProfile), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o666)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, upTo := range []int{3, 30, 4096, len(frame) - 1} {
		if _, err := f.Write(frame[:upTo][fileLen(t, f):]); err != nil {
			t.Fatal(err)
		}
		if _, ok := d.Get(StageProfile, key); ok {
			t.Fatalf("%d of %d bytes served as a blob", upTo, len(frame))
		}
	}
	if _, err := f.Write(frame[len(frame)-1:]); err != nil {
		t.Fatal(err)
	}
	mustHit(t, d, StageProfile, key, payload)
	if st := d.Stats(); st.Corrupt != 0 {
		t.Errorf("a slow append was counted as damage: %+v", st)
	}
}

func fileLen(t *testing.T, f *os.File) int64 {
	t.Helper()
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestDiskScanHostileFraming writes logs no writer of this package
// would and checks what a fresh scan indexes: only spans it framed to
// the end, each inside the file.
func TestDiskScanHostileFraming(t *testing.T) {
	kIn, kOut, kLast := testKey("inner"), testKey("outer"), testKey("last")
	inner := EncodeBlob(testSchema, StageProfile, kIn, []byte("smuggled"))
	outer := EncodeBlob(testSchema, StageProfile, kOut, append([]byte("carrier "), inner...))
	last := EncodeBlob(testSchema, StageProfile, kLast, []byte("last"))
	forged := func(plen uint64) []byte { // a header claiming plen payload bytes, and four of them
		b := bytes.Clone(EncodeBlob(testSchema, StageProfile, testKey("forged"), nil))
		h, _ := parseHeader(b)
		binary.LittleEndian.PutUint64(b[h.size-8:], plen)
		return append(b[:h.size], "four"...)
	}
	junk := bytes.Repeat([]byte{0xA5}, 2*searchChunk+11)
	cases := []struct {
		name    string
		log     []byte
		hits    []Key
		misses  []Key
		corrupt int64
	}{
		{"frame-inside-a-payload", join(outer, last), []Key{kOut, kLast}, []Key{kIn}, 0},
		{"forged-length-at-the-bound", join(forged(maxPayloadLen), last), []Key{kLast}, []Key{testKey("forged")}, 1},
		{"forged-length-past-the-bound", join(forged(1<<62), last), []Key{kLast}, []Key{testKey("forged")}, 1},
		// A frame followed by bytes that start no frame is not believed:
		// that is what a torn frame swallowing its successor looks like.
		{"junk-longer-than-a-search-chunk", join(outer, junk, last), []Key{kLast}, []Key{kOut}, 1},
		{"magic-straddling-a-chunk-boundary", join(junk[:searchChunk-3], last), []Key{kLast}, nil, 1},
		{"junk-ending-inside-a-magic", join(last, junk[:100], blobMagic[:5]), nil, []Key{kLast}, 1},
		{"every-byte-a-magic-prefix", bytes.Repeat(blobMagic[:1], 3*searchChunk), nil, []Key{kLast}, 1},
		{"alien-frames-skipped-whole", join(
			EncodeBlob("other-schema/9", StageProfile, kLast, inner),
			EncodeBlob(testSchema, StageAdvice, kLast, inner), last), []Key{kLast}, []Key{kIn}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.MkdirAll(filepath.Dir(logPath(dir, StageProfile)), 0o777); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(logPath(dir, StageProfile), tc.log, 0o666); err != nil {
				t.Fatal(err)
			}
			d := openAt(t, dir)
			for _, k := range tc.hits {
				if _, ok := d.Get(StageProfile, k); !ok {
					t.Errorf("a well-framed blob was not found")
				}
			}
			for _, k := range tc.misses {
				if _, ok := d.Get(StageProfile, k); ok {
					t.Errorf("a blob that is not a frame of this log was served")
				}
			}
			d.Get(StageProfile, testKey("nobody")) // a scan at least
			checkIndex(t, d, StageProfile, tc.log)
			if st := d.Stats(); st.Corrupt != tc.corrupt {
				t.Errorf("corrupt = %d, want %d: each damaged region and each alien frame once", st.Corrupt, tc.corrupt)
			}
		})
	}
}

func join(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// checkIndex asserts what must hold of a stage's index over any bytes:
// every span lies inside the file and starts a header naming its key,
// and the index is no bigger than the frames the file has room for.
func checkIndex(t *testing.T, d *Disk, stage string, file []byte) {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	l, err := d.log(stage)
	if err != nil {
		t.Fatal(err)
	}
	minFrame := len(EncodeBlob(d.schema, stage, Key{}, nil))
	if len(l.index) > len(file)/minFrame {
		t.Errorf("%d frames indexed in %d bytes", len(l.index), len(file))
	}
	if l.scanned > int64(len(file)) || cap(l.window.buf) > max(searchChunk, maxHeaderLen) {
		t.Errorf("scanned %d of %d bytes through a %d-byte window", l.scanned, len(file), cap(l.window.buf))
	}
	for key, sp := range l.index {
		if sp.off < 0 || sp.n < int64(minFrame) || sp.off+sp.n > int64(len(file)) {
			t.Fatalf("indexed span [%d,+%d) is not inside the %d-byte file", sp.off, sp.n, len(file))
		}
		h, err := parseHeader(file[sp.off : sp.off+sp.n])
		if err != nil || h.key != key || h.frameLen() != sp.n {
			t.Fatalf("indexed span [%d,+%d) is not a frame of its key: %v", sp.off, sp.n, err)
		}
	}
}

// TestDiskLogCutOrRemovedUnderHandle: the log shrinks, or goes away,
// while a handle has it open and indexed.
func TestDiskLogCutOrRemovedUnderHandle(t *testing.T) {
	payload := bytes.Repeat([]byte("p"), 100)
	fill := func(d *Disk) (keys []Key) {
		for i := range 8 {
			keys = append(keys, testKey(fmt.Sprint("k", i)))
			d.Put(StageProfile, keys[i], payload)
		}
		mustHit(t, d, StageProfile, keys[0], payload)
		return keys
	}
	t.Run("cut-then-regrown-past-the-old-end", func(t *testing.T) {
		// The index's spans point into other frames, or past the end:
		// every read is verified, so none of it is served, and every
		// key is stored again and found.
		dir := t.TempDir()
		d := openAt(t, dir)
		keys := fill(d)
		if err := os.Truncate(logPath(dir, StageProfile), 150); err != nil {
			t.Fatal(err)
		}
		for range 2 {
			for _, k := range keys {
				if _, ok := d.Get(StageProfile, k); !ok {
					d.Put(StageProfile, k, payload)
				}
				mustHit(t, d, StageProfile, k, payload)
			}
		}
		if st := d.Stats(); st.Corrupt == 0 || st.Errors != 0 {
			t.Errorf("stats = %+v, want the cut counted and no errors", st)
		}
		d.Close()
		d = openAt(t, dir)
		for _, k := range keys {
			mustHit(t, d, StageProfile, k, payload)
		}
	})
	t.Run("removed", func(t *testing.T) {
		// The handle keeps the unlinked file: nothing it serves is
		// wrong, nothing it stores outlives it, and the next handle
		// starts from an empty log without calling that damage.
		dir := t.TempDir()
		d := openAt(t, dir)
		keys := fill(d)
		if err := os.Remove(logPath(dir, StageProfile)); err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if got, ok := d.Get(StageProfile, k); ok && !bytes.Equal(got, payload) {
				t.Fatalf("wrong bytes from a removed log: %q", got)
			}
		}
		d.Close()
		d = openAt(t, dir)
		if _, ok := d.Get(StageProfile, keys[0]); ok {
			t.Fatal("a removed log served a blob to a new handle")
		}
		d.Put(StageProfile, keys[0], payload)
		mustHit(t, d, StageProfile, keys[0], payload)
		if st := d.Stats(); st.Corrupt != 0 || st.Errors != 0 {
			t.Errorf("stats = %+v, want a clean cold start", st)
		}
	})
}

// TestDiskNewestFrameWins: a key stored twice is served from its later
// frame — which is how a blob a caller rejected (NoteCorrupt) is
// replaced in a log nothing is ever removed from — by the handle that
// stored it and by one that scans both frames afresh.
func TestDiskNewestFrameWins(t *testing.T) {
	dir := t.TempDir()
	d := openAt(t, dir)
	key := testKey("k")
	d.Put(StageAdvice, key, []byte("checksum-valid, and not an artifact"))
	mustHit(t, d, StageAdvice, key, []byte("checksum-valid, and not an artifact"))
	d.NoteCorrupt(StageAdvice, key)
	if _, ok := d.Get(StageAdvice, key); ok {
		t.Fatal("a blob its reader rejected was offered again")
	}
	d.Put(StageAdvice, key, []byte("recomputed"))
	mustHit(t, d, StageAdvice, key, []byte("recomputed"))
	if st := d.Stats(); st.Corrupt != 1 || st.Puts != 2 {
		t.Errorf("stats = %+v, want 1 corrupt, 2 puts", st)
	}
	d.Close()

	// A fresh scan meets the rejected frame again, and the later one wins.
	d = openAt(t, dir)
	mustHit(t, d, StageAdvice, key, []byte("recomputed"))
	// A rejection is the handle's own memory: when the process dies
	// before it stores the recomputed blob, the next one is offered the
	// frame again (the framing cannot know) and rejects it again.
	d.NoteCorrupt(StageAdvice, key)
	d.Close()
	mustHit(t, openAt(t, dir), StageAdvice, key, []byte("recomputed"))
}

func TestDiskClose(t *testing.T) {
	d := openTestDisk(t)
	key := testKey("k")
	d.Put(StageMeasure, key, []byte("p"))
	mustHit(t, d, StageMeasure, key, []byte("p"))
	for range 2 {
		if err := d.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
	before := d.Stats()
	if _, ok := d.Get(StageMeasure, key); ok {
		t.Error("a closed store served a blob")
	}
	if _, ok := d.Get(StageAdvice, key); ok { // a stage it never opened
		t.Error("a closed store served a blob")
	}
	d.Put(StageMeasure, key, []byte("p"))
	d.Put(StageAdvice, key, []byte("p"))
	d.NoteCorrupt(StageMeasure, key)
	if _, _, _, ok := d.Locate(StageMeasure, key); ok {
		t.Error("a closed store located a blob")
	}
	st := d.Stats()
	if st.Misses != before.Misses+2 || st.Errors != before.Errors+2 || st.Puts != before.Puts || st.Hits != before.Hits {
		t.Errorf("after Close: %+v (before: %+v), want 2 more misses, 2 more errors", st, before)
	}
	if _, err := os.Stat(filepath.Join(d.Dir(), StageAdvice+".log")); !os.IsNotExist(err) {
		t.Errorf("a closed store opened a log: %v", err)
	}
}

// Close may land among reads and writes: they finish or are refused,
// and none touches a descriptor the close gave back.
func TestDiskCloseAmongReadersAndWriters(t *testing.T) {
	d := openTestDisk(t)
	payload := []byte("identical bytes from every writer")
	var wg sync.WaitGroup
	for i := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range 200 {
				key := testKey(fmt.Sprint(i, "/", j%16))
				d.Put(StageMeasure, key, payload)
				if got, ok := d.Get(StageMeasure, key); ok && !bytes.Equal(got, payload) {
					t.Errorf("wrong bytes: %q", got)
				}
			}
		}()
	}
	d.Close()
	wg.Wait()
	if st := d.Stats(); st.Corrupt != 0 {
		t.Errorf("closing counted damage: %+v", st)
	}
}

func TestDiskConcurrentWriters(t *testing.T) {
	d := openTestDisk(t)
	key := testKey("contended")
	payload := []byte("identical bytes from every writer")

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				d.Put(StageMeasure, key, payload)
				if got, ok := d.Get(StageMeasure, key); ok && !bytes.Equal(got, payload) {
					t.Errorf("reader observed torn blob: %q", got)
				}
			}
		}()
	}
	wg.Wait()
	mustHit(t, d, StageMeasure, key, payload)
	if st := d.Stats(); st.Corrupt != 0 || st.Errors != 0 {
		t.Errorf("concurrent writers produced corruption/errors: %+v", st)
	}
	// A stage is one file, whatever was put.
	entries, err := os.ReadDir(d.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != StageMeasure+".log" {
		t.Errorf("store directory holds %v, want the measure log alone", entries)
	}
}

func TestDiskConcurrentDistinctKeys(t *testing.T) {
	d := openTestDisk(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				key := testKey(fmt.Sprintf("k-%d-%d", i, j))
				payload := []byte(fmt.Sprintf("payload-%d-%d", i, j))
				d.Put(StageAdvice, key, payload)
				got, ok := d.Get(StageAdvice, key)
				if !ok || !bytes.Equal(got, payload) {
					t.Errorf("k-%d-%d: got %q, %v", i, j, got, ok)
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestDiskTwoHandlesOneDirectory: two handles — two processes, as far
// as the log can tell — append to one directory from 8 goroutines each,
// keys of their own and keys every goroutine stores. Each finds what
// the other appended, byte-identical, while it is happening and after.
func TestDiskTwoHandlesOneDirectory(t *testing.T) {
	dir := t.TempDir()
	handles := []*Disk{openAt(t, dir), openAt(t, dir)}
	payloadOf := func(name string) []byte { return bytes.Repeat([]byte(name+"|"), 300) } // spans pages
	const writers, rounds = 8, 12
	var wg sync.WaitGroup
	for h, d := range handles {
		for w := range writers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := range rounds {
					own, shared := fmt.Sprint("own/", h, "/", w, "/", r), fmt.Sprint("shared/", r)
					for _, name := range []string{own, shared} {
						d.Put(StageProfile, testKey(name), payloadOf(name))
					}
					// Whatever the other handle has finished storing.
					peer := fmt.Sprint("own/", 1-h, "/", w, "/", r)
					for _, name := range []string{own, shared, peer} {
						got, ok := d.Get(StageProfile, testKey(name))
						if ok && !bytes.Equal(got, payloadOf(name)) {
							t.Errorf("%s: wrong bytes", name)
						}
						if !ok && name != peer {
							t.Errorf("%s: a handle lost its own append", name)
						}
					}
				}
			}()
		}
	}
	wg.Wait()
	for _, d := range append(handles, openAt(t, dir)) {
		for h := range handles {
			for w := range writers {
				for r := range rounds {
					name := fmt.Sprint("own/", h, "/", w, "/", r)
					mustHit(t, d, StageProfile, testKey(name), payloadOf(name))
				}
			}
		}
		for r := range rounds {
			name := fmt.Sprint("shared/", r)
			mustHit(t, d, StageProfile, testKey(name), payloadOf(name))
		}
		if st := d.Stats(); st.Corrupt != 0 || st.Errors != 0 {
			t.Errorf("sharing a directory counted damage: %+v", st)
		}
	}
}

func TestMemoryLRU(t *testing.T) {
	m := NewMemory(2)
	k1, k2, k3 := testKey("1"), testKey("2"), testKey("3")
	m.Add(StageMeasure, k1, "one")
	m.Add(StageMeasure, k2, "two")
	if v, ok := m.Get(StageMeasure, k1); !ok || v != "one" {
		t.Fatalf("Get(k1) = %v, %v", v, ok)
	}
	m.Add(StageMeasure, k3, "three") // evicts k2 (least recently used)
	if _, ok := m.Get(StageMeasure, k2); ok {
		t.Error("k2 survived eviction")
	}
	if _, ok := m.Get(StageMeasure, k1); !ok {
		t.Error("recently-used k1 was evicted")
	}
	if st := m.Stats(); st.Evictions != 1 || st.Puts != 3 {
		t.Errorf("stats = %+v, want 3 puts, 1 eviction", st)
	}
}

func TestMemoryLoadOrStore(t *testing.T) {
	m := NewMemory(8)
	k := testKey("k")
	first := &struct{ n int }{1}
	second := &struct{ n int }{2}
	if got := m.Add(StageAdvice, k, first); got != first {
		t.Fatal("first Add did not store its value")
	}
	if got := m.Add(StageAdvice, k, second); got != first {
		t.Error("second Add replaced the existing artifact")
	}
}

func TestMemoryStagesAreIndependent(t *testing.T) {
	m := NewMemory(1)
	k := testKey("k")
	m.Add(StageMeasure, k, "m")
	m.Add(StageProfile, k, "p")
	if v, ok := m.Get(StageMeasure, k); !ok || v != "m" {
		t.Errorf("measure stage = %v, %v", v, ok)
	}
	if v, ok := m.Get(StageProfile, k); !ok || v != "p" {
		t.Errorf("profile stage = %v, %v", v, ok)
	}
}

func TestMemoryNilReceiver(t *testing.T) {
	var m *Memory = NewMemory(-1)
	if m != nil {
		t.Fatal("negative bound must disable the backend")
	}
	if _, ok := m.Get(StageMeasure, testKey("k")); ok {
		t.Error("nil Memory returned a hit")
	}
	if got := m.Add(StageMeasure, testKey("k"), "v"); got != "v" {
		t.Error("nil Memory Add must pass the value through")
	}
	if st := m.Stats(); st != (Stats{}) {
		t.Errorf("nil Memory stats = %+v, want zero", st)
	}
}

func TestBlobDecodeRejectsGarbage(t *testing.T) {
	key := testKey("k")
	valid := EncodeBlob(testSchema, StageMeasure, key, []byte("payload"))
	cases := map[string][]byte{
		"empty":         nil,
		"short":         valid[:4],
		"no-checksum":   valid[:len(valid)-1],
		"bad-magic":     append([]byte("NOTMAGIC"), valid[8:]...),
		"trailing-junk": append(append([]byte{}, valid...), 0xFF),
	}
	for name, data := range cases {
		if _, err := decodeBlob(data, testSchema, StageMeasure, key); err == nil {
			t.Errorf("%s: decode accepted malformed blob", name)
		}
	}
	if got, err := decodeBlob(valid, testSchema, StageMeasure, key); err != nil || !bytes.Equal(got, []byte("payload")) {
		t.Fatalf("valid blob failed: %q, %v", got, err)
	}
}
