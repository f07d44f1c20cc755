package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// layoutVersion names the on-disk directory layout. It versions the
// directory shape only; payload compatibility is the schema string's
// job (it rides inside every blob and in the layout path, so a build
// with a different payload schema sees an empty store, not garbage).
// A tree written under another layout version is never opened.
const layoutVersion = "v2"

// Disk is the persistent artifact backend: one append-only log per
// stage at
//
//	<dir>/v2/<schema-slug>/<stage>.log
//
// holding the stage's blobs as consecutive frames (blob.go). Put is one
// write(2) on a descriptor opened O_APPEND at the stage's first use; Get
// is a lookup in the stage's in-memory index (key → the span of the
// key's newest frame) and one pread of exactly that span, verified
// whole before a payload byte is believed. The index is built by one
// code path only — scanning frame headers from where the last scan
// stopped, whenever a lookup misses and the log has grown since — so a
// handle's own appends, a restarted process, and another process
// appending to the same directory are all found the same way.
//
// Safe for concurrent use, and for any number of processes on one
// directory as long as O_APPEND writes are atomic there (a local
// filesystem): frames never interleave, a later frame of a key
// supersedes an earlier one, and writers of one key append identical
// bytes (keys are content addresses). Nothing is ever rewritten in
// place, so one blob cannot be removed; removing a stage's log (with
// no process holding it open) forgets the stage.
//
// A Disk holds one open file per stage it has touched: Close it.
type Disk struct {
	root   string // <dir>/v2/<schema-slug>
	schema string

	// mu guards logs and every log's file and index. An append holds it
	// too, so a scan never sees this handle's own append half-written.
	mu   sync.Mutex
	logs map[string]*stageLog // nil once closed

	hits    atomic.Int64
	misses  atomic.Int64
	puts    atomic.Int64
	corrupt atomic.Int64
	errors  atomic.Int64
}

// span locates one frame in a stage log.
type span struct{ off, n int64 }

// stageLog is one stage's open log and the index over it.
type stageLog struct {
	stage, path string
	f           *os.File
	index       map[Key]span // the newest frame of every key framed in [0, scanned)
	scanned     int64        // where the next scan starts: a frame boundary, or an unfinished tail
	window      window
}

// errMiss is a lookup that found nothing and rejected nothing.
var errMiss = errors.New("store: miss")

// Open creates (if needed) and opens an on-disk store rooted at dir.
// The schema string versions the payload encoding: blobs written under
// any other schema are invisible (they live under another slug and
// would fail framing verification anyway), so bumping the schema
// starts cold instead of misreading old artifacts.
func Open(dir, schema string) (*Disk, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty store directory")
	}
	if schema == "" {
		return nil, fmt.Errorf("store: empty schema")
	}
	root := filepath.Join(dir, layoutVersion, slug(schema))
	if err := os.MkdirAll(root, 0o777); err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	return &Disk{root: root, schema: schema, logs: map[string]*stageLog{}}, nil
}

// slug renders a schema or stage name as a single path component.
func slug(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '.', r == '_':
			return r
		}
		return '_'
	}, name)
}

// log returns the stage's open log, opening it at the stage's first
// use. A closed store has none (errMiss); a log that cannot be opened
// is an unreadable one (errCorrupt), and the next call tries again.
// Called with d.mu held.
func (d *Disk) log(stage string) (*stageLog, error) {
	if d.logs == nil {
		return nil, errMiss
	}
	if l := d.logs[stage]; l != nil {
		return l, nil
	}
	path := filepath.Join(d.root, slug(stage)+".log")
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND|os.O_CREATE, 0o666)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errCorrupt, err)
	}
	l := &stageLog{stage: stage, path: path, f: f, index: map[Key]span{}}
	d.logs[stage] = l
	return l, nil
}

// Get returns the verified payload for (stage, key), or ok=false on a
// miss. Every failure mode other than "no such frame" — an unreadable
// log, a span the file no longer holds, bit flips, wrong
// schema/stage/key, checksum mismatch — counts as Corrupt, is degraded
// to a miss, and drops the frame from the index, so the recomputed
// artifact's frame is the one the next Get finds.
func (d *Disk) Get(stage string, key Key) ([]byte, bool) {
	frame, err := d.read(stage, key)
	if err == nil {
		var payload []byte
		if payload, err = decodeBlob(frame, d.schema, stage, key); err == nil {
			d.hits.Add(1)
			return payload, true
		}
	}
	d.misses.Add(1)
	if errors.Is(err, errCorrupt) {
		d.NoteCorrupt(stage, key)
	}
	return nil, false
}

// read returns key's newest frame as the log holds it, unverified.
func (d *Disk) read(stage string, key Key) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	l, sp, err := d.find(stage, key)
	if err != nil {
		return nil, err
	}
	frame := make([]byte, sp.n)
	if _, err := l.f.ReadAt(frame, sp.off); err != nil {
		// The file no longer holds a span the index does — the log was
		// cut under the handle, or is unreadable: index it afresh.
		l.index, l.scanned = map[Key]span{}, 0
		return nil, fmt.Errorf("%w: %v", errCorrupt, err)
	}
	return frame, nil
}

// find returns the span of key's newest frame. It is the one place the
// index grows: a miss scans whatever the log has gained since the last
// scan — all of it at a stage's first use — and looks again. Called
// with d.mu held.
func (d *Disk) find(stage string, key Key) (*stageLog, span, error) {
	l, err := d.log(stage)
	if err != nil {
		return nil, span{}, err
	}
	sp, ok := l.index[key]
	if !ok {
		// The descriptor's offset is never used (appends ignore it,
		// reads are preads), so seeking to the end is a size query
		// that, unlike Stat, allocates nothing.
		size, err := l.f.Seek(0, io.SeekEnd)
		if err != nil || size < l.scanned {
			// Cut under the handle, or not even sizable any more:
			// nothing indexed can be trusted.
			d.corrupt.Add(1)
			l.index, l.scanned = map[Key]span{}, 0
		}
		if size > l.scanned {
			d.scan(l, size)
		}
		if sp, ok = l.index[key]; !ok {
			return nil, span{}, errMiss
		}
	}
	return l, sp, nil
}

// scan indexes the frames in [l.scanned, size) from their headers alone
// (Get verifies a frame when it is asked for). A frame is indexed only
// once it is fully framed: its header parses with every length in
// bounds, its span ends inside the file, and what follows the span is
// the end of the file or another frame's magic — so a torn frame whose
// claimed span swallows the frame appended behind it is not believed,
// and that frame is found. Bytes that do not frame are a damaged
// region, counted once in Corrupt from where it starts to the next
// frame that does, and stepped over a magic at a time; a well-framed
// blob of another schema or stage is counted and skipped whole. An
// unfinished tail — a header or span running past the end of the file
// with no magic behind it — may be a torn append or another process's
// append in flight: it is left where it is, uncounted, for the scan
// that sees what follows it. Called with l.mu held.
func (d *Disk) scan(l *stageLog, size int64) {
	w := &l.window
	w.f, w.size, w.buf = l.f, size, w.buf[:0]
	pos, damaged := l.scanned, false
	for pos < size {
		h, err := parseHeader(w.at(pos, maxHeaderLen))
		// h's names alias the window: read them before the next peek.
		ours := string(h.schema) == d.schema && string(h.stage) == l.stage
		end := pos + h.frameLen()
		if err == nil && end <= size && startsWithMagic(w.at(end, maxHeaderLen)) {
			if ours {
				l.index[h.key] = span{pos, end - pos}
			} else {
				d.corrupt.Add(1)
			}
			pos, damaged = end, false
			continue
		}
		next := w.nextMagic(pos + 1)
		if next == size && (errors.Is(err, errShortHeader) || (err == nil && end > size)) {
			break // an unfinished tail
		}
		if !damaged {
			d.corrupt.Add(1)
		}
		pos, damaged = next, true
	}
	l.scanned = pos
}

// window is the scanner's read-through buffer over a log's first size
// bytes: header peeks and magic searches are buffered reads, and the
// buffer is the stage's own, reused from scan to scan.
type window struct {
	f    io.ReaderAt
	size int64
	buf  []byte
	off  int64 // file offset of buf[0]
}

// searchChunk is how much nextMagic reads at a time.
const searchChunk = 64 << 10

// at returns the up to n bytes at off, fewer where the file ends (or
// stops reading) first.
func (w *window) at(off int64, n int) []byte {
	n = int(min(int64(n), w.size-off))
	if n <= 0 {
		return nil
	}
	if i := off - w.off; i >= 0 && i+int64(n) <= int64(len(w.buf)) {
		return w.buf[i : i+int64(n)]
	}
	w.buf = slices.Grow(w.buf[:0], n)[:n]
	// A short read is a log that shrank or went bad under the scan:
	// what was read is all there is, and the scanner sees a torn tail.
	m, _ := w.f.ReadAt(w.buf, off)
	w.buf, w.off = w.buf[:m], off
	return w.buf
}

// nextMagic returns the first offset at or after from where the file
// has the frame magic — or, at its very end, the beginning of one — and
// size when there is none.
func (w *window) nextMagic(from int64) int64 {
	for from < w.size {
		chunk := w.at(from, searchChunk)
		atEnd := from+int64(len(chunk)) == w.size
		for i := 0; ; i++ {
			j := bytes.IndexByte(chunk[i:], blobMagic[0])
			if j < 0 {
				break
			}
			i += j
			if rest := chunk[i:]; startsWithMagic(rest) && (len(rest) >= len(blobMagic) || atEnd) {
				return from + int64(i)
			}
		}
		if atEnd || len(chunk) < len(blobMagic) {
			break
		}
		// The last bytes may begin a magic the next chunk completes.
		from += int64(len(chunk) - len(blobMagic) + 1)
	}
	return w.size
}

// Put appends the frame for (stage, key) to the stage's log in one
// write. Failures are counted and swallowed: the store is a cache, so a
// full or read-only disk costs future misses, never correctness; a
// short write leaves at worst a torn frame the next scan steps over.
// No fsync, for the same reason: a crash may lose recent artifacts (a
// future miss), and a frame it tore fails verification like any other
// damage.
func (d *Disk) Put(stage string, key Key, payload []byte) {
	frame := EncodeBlob(d.schema, stage, key, payload)
	d.mu.Lock()
	l, err := d.log(stage)
	if err == nil {
		_, err = l.f.Write(frame)
	}
	d.mu.Unlock()
	if err != nil {
		d.errors.Add(1)
		return
	}
	d.puts.Add(1)
}

// NoteCorrupt records a payload-level corruption discovered by a
// caller whose own decoding rejected a checksum-valid blob (the
// framing proves the bytes, not that they decode to a well-formed
// artifact), and forgets the frame, so the blob is recomputed rather
// than rejected on every future read: the frame stays in the log and
// loses to the recomputed one, appended after it, in every later scan
// too.
func (d *Disk) NoteCorrupt(stage string, key Key) {
	d.corrupt.Add(1)
	d.mu.Lock()
	if l := d.logs[stage]; l != nil {
		delete(l.index, key)
	}
	d.mu.Unlock()
}

// Locate reports where the newest frame of (stage, key) sits: the
// stage log's path and the frame's span in it. It is for fault-
// injection tests and offline tooling, which edit or inspect a blob's
// bytes where they are stored; ok is false when there is no such frame.
func (d *Disk) Locate(stage string, key Key) (path string, off, n int64, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	l, sp, err := d.find(stage, key)
	if err != nil {
		return "", 0, 0, false
	}
	return l.path, sp.off, sp.n, true
}

// Close closes every stage log. After it a Get is a miss and a Put a
// counted error; closing twice is harmless.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var errs []error
	for _, l := range d.logs {
		errs = append(errs, l.f.Close())
	}
	d.logs = nil
	return errors.Join(errs...)
}

// Stats snapshots the disk counters.
func (d *Disk) Stats() Stats {
	return Stats{
		Hits:    d.hits.Load(),
		Misses:  d.misses.Load(),
		Puts:    d.puts.Load(),
		Corrupt: d.corrupt.Load(),
		Errors:  d.errors.Load(),
	}
}

// Dir reports the store's root directory (the versioned, schema-keyed
// directory the stage logs live in, not the directory the store was
// opened with).
func (d *Disk) Dir() string { return d.root }

// CheckWritable probes whether the store can still accept blobs by
// creating and removing a uniquely named file under the root. It is a
// health-endpoint hook: a full disk or revoked permissions turn the
// store into a silent pass-through (Put failures only bump Errors), so
// liveness probes need an explicit signal.
func (d *Disk) CheckWritable() error {
	f, err := os.CreateTemp(d.root, ".healthz-*")
	if err != nil {
		return err
	}
	name := f.Name()
	f.Close()
	return os.Remove(name)
}
