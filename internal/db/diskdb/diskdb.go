// Package diskdb is the log-structured persistent backend behind db.KV:
// append-only segment files of CRC-framed records, an in-memory key →
// file-location index rebuilt by scanning the segments on open, segment
// rotation at a size threshold, and tombstone records for deletes. There
// is no compaction pass: segments are never rewritten or removed. Every
// write is a batch.
//
// The paper's measurement archive must survive node restarts (§3.1 —
// export everything, then join); this backend is what lets forkserve
// reopen the two simulated chains from disk instead of re-simulating
// them. Crash consistency shapes the design:
//
//   - A Batch commits as staged records followed by a commit record
//     carrying the group's op count, appended in chunks of at most
//     chunkBytes and then fsynced once. Replay applies a staged group
//     only when its commit record survives intact, so a batch torn
//     anywhere is a batch that never happened. The chain hands the store
//     one batch per commit — a mined or inserted block, or an imported
//     run of blocks, state nodes and WAL record included — so a chain
//     commit costs one fsync (and one append unless it passes
//     chunkBytes), and a crash loses it whole.
//   - Segments hold batch groups only. Archives written before every
//     write was a batch also hold plain put and tombstone records; those
//     no longer decode, so such an archive no longer opens with its data:
//     each plain record is repaired away like any undecodable frame.
//   - On open, a torn tail (half-written frame, uncommitted group) is
//     truncated away; a fully-framed record whose checksum fails is
//     skipped; both count into db.Stats.Repairs.
//   - A failed append is repaired by truncating back to the group's
//     start before the (transient) error is returned, so a db.Retry
//     re-append lands on clean framing. If the repair itself fails the
//     store degrades to read-only (db.ErrReadOnly) instead of panicking:
//     reads keep serving the archive while writes report the dead disk.
//
// All I/O goes through the FS seam, which is how the faultfile
// sub-package proves these paths with deterministic injected faults.
package diskdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"
	"sync/atomic"

	"forkwatch/internal/db"
	"forkwatch/internal/db/dbfs"
)

// FS and File alias the dbfs seam: diskdb's whole view of the world.
type (
	FS   = dbfs.FS
	File = dbfs.File
)

// NewOSFS roots a real filesystem at dir (see dbfs.NewOSFS).
func NewOSFS(dir string) (FS, error) { return dbfs.NewOSFS(dir) }

// DefaultSegmentBytes is the rotation threshold when Options.SegmentBytes
// is zero.
const DefaultSegmentBytes = 4 << 20

// chunkBytes bounds one append of a batch group. A group is framed into
// one buffer of at most this size, appended each time it fills, so a
// write never holds a second copy of the batch's values.
const chunkBytes = 1 << 20

// Options parameterises a store.
type Options struct {
	// SegmentBytes rotates the active segment once it reaches this size
	// (0 = DefaultSegmentBytes). Records never split across segments; a
	// single oversized record may push a segment past the threshold.
	SegmentBytes int64
}

// errClosed reports use after Close. Not transient.
var errClosed = errors.New("diskdb: store is closed")

// transientErr marks read-path failures worth retrying (injected I/O
// errors pass their own transience through; checksum mismatches are
// transient because read-path bit-rot vanishes on a re-read, and genuine
// at-rest rot simply exhausts the retry budget and surfaces).
type transientErr struct{ err error }

func (e transientErr) Error() string { return e.err.Error() }
func (e transientErr) Unwrap() error { return e.err }
func (transientErr) Transient() bool { return true }

// entry locates a key's newest record.
type entry struct {
	seg  uint64
	off  int64
	flen int32
	del  bool
}

// segment is one open log file.
type segment struct {
	id   uint64
	f    File
	size int64
}

// DB implements db.KV over an FS. Safe for concurrent use: reads share an
// RLock (records are immutable once written), writes serialise.
type DB struct {
	fs   FS
	opts Options

	mu     sync.RWMutex
	segs   map[uint64]*segment
	ids    []uint64 // ascending; replay order
	active *segment
	index  map[string]entry
	live   int   // non-tombstone keys
	ro     error // non-nil: degraded to read-only; holds the cause
	closed bool

	reads, writes, deletes, hits, misses, repairs atomic.Uint64
}

func init() {
	db.RegisterDiskBackend(func(cfg db.Config) (db.KV, error) {
		fs, err := NewOSFS(cfg.DataDir)
		if err != nil {
			return nil, err
		}
		return Open(fs, Options{})
	})
}

func segName(id uint64) string { return fmt.Sprintf("seg-%06d.log", id) }

func parseSegName(name string) (uint64, bool) {
	var id uint64
	n, err := fmt.Sscanf(name, "seg-%d.log", &id)
	return id, n == 1 && err == nil && id > 0
}

// Open opens (or initialises) a store over fs, replaying every segment to
// rebuild the index and repairing whatever a crash left behind: torn
// tails and uncommitted batch groups are truncated away, checksum-failed
// records are skipped, and every repair is counted in Stats().Repairs.
func Open(fs FS, opts Options) (*DB, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	d := &DB{
		fs:    fs,
		opts:  opts,
		segs:  make(map[uint64]*segment),
		index: make(map[string]entry),
	}
	names, err := fs.List()
	if err != nil {
		return nil, fmt.Errorf("diskdb: listing segments: %w", err)
	}
	var ids []uint64
	for _, name := range names {
		if id, ok := parseSegName(name); ok {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if len(ids) == 0 {
		ids = []uint64{1}
	}
	for i, id := range ids {
		f, err := fs.Open(segName(id))
		if err != nil {
			d.closeAll()
			return nil, fmt.Errorf("diskdb: opening %s: %w", segName(id), err)
		}
		size, err := f.Size()
		if err != nil {
			f.Close()
			d.closeAll()
			return nil, fmt.Errorf("diskdb: sizing %s: %w", segName(id), err)
		}
		seg := &segment{id: id, f: f, size: size}
		if err := d.scanSegment(seg); err != nil {
			f.Close()
			d.closeAll()
			return nil, err
		}
		d.segs[id] = seg
		d.ids = append(d.ids, id)
		if i == len(ids)-1 {
			d.active = seg
		}
	}
	return d, nil
}

// scanSegment replays one segment into the index, deciding a repair
// action for every way the bytes can be wrong (see package comment).
func (d *DB) scanSegment(seg *segment) error {
	if seg.size == 0 {
		return nil
	}
	buf := make([]byte, seg.size)
	if _, err := seg.f.ReadAt(buf, 0); err != nil {
		return fmt.Errorf("diskdb: scanning %s: %w", segName(seg.id), err)
	}

	type scanOp struct {
		rec  record
		off  int64
		flen int32
	}
	var pending []scanOp // staged group awaiting its commit record
	pendingStart := int64(-1)
	dropPending := func() {
		// An interrupted or commit-less group never happened.
		d.repairs.Add(1)
		pending, pendingStart = nil, -1
	}
	truncTo := int64(-1)
	off := int64(0)

scan:
	for off < seg.size {
		rec, n, err := decodeRecord(buf[off:])
		switch {
		case err == nil:
			// handled below
		case errors.Is(err, errFrameTorn), errors.Is(err, errFrameGarbage):
			// Half a frame, or framing lost entirely: nothing past this
			// point is reachable. Truncate — back to the group start if a
			// staged group was in flight.
			truncTo = off
			if pendingStart >= 0 {
				truncTo = pendingStart
			}
			d.repairs.Add(1)
			break scan
		default: // errFrameChecksum, errFramePayload: full frame, bad bytes
			if off+int64(n) == seg.size {
				// A bad final record is a torn append, not at-rest rot:
				// truncate it (and any group it belonged to) away.
				truncTo = off
				if pendingStart >= 0 {
					truncTo = pendingStart
				}
				d.repairs.Add(1)
				break scan
			}
			// Mid-file rot: skip the record, keep replaying. A group the
			// rotted record interrupts is dropped (its commit can no
			// longer be trusted to match).
			if pendingStart >= 0 {
				dropPending()
			}
			d.repairs.Add(1)
			off += int64(n)
			continue
		}

		switch rec.kind {
		case recStagedPut, recStagedDel:
			if pendingStart < 0 {
				pendingStart = off
			}
			pending = append(pending, scanOp{rec: rec, off: off, flen: int32(n)})
		case recCommit:
			if pendingStart < 0 || len(rec.value) != 4 ||
				binary.BigEndian.Uint32(rec.value) != uint32(len(pending)) {
				// Stray commit, or a count that does not match the staged
				// records in front of it: the group cannot be trusted.
				dropPending()
			} else {
				for _, op := range pending {
					d.apply(string(op.rec.key), entry{
						seg: seg.id, off: op.off, flen: op.flen,
						del: op.rec.kind == recStagedDel,
					})
				}
				pending, pendingStart = nil, -1
			}
		}
		off += int64(n)
	}

	if truncTo < 0 && pendingStart >= 0 {
		// Segment ends inside a staged group: the commit record never
		// made it to the medium, so the group never happened.
		truncTo = pendingStart
		d.repairs.Add(1)
	}
	if truncTo >= 0 {
		if err := seg.f.Truncate(truncTo); err != nil {
			return fmt.Errorf("diskdb: truncating torn tail of %s: %w", segName(seg.id), err)
		}
		seg.size = truncTo
	}
	return nil
}

// apply installs a replayed or freshly written entry, keeping the live
// count. Caller holds d.mu (or is still single-owner inside Open).
func (d *DB) apply(key string, e entry) {
	if old, ok := d.index[key]; ok && !old.del {
		d.live--
	}
	if !e.del {
		d.live++
	}
	d.index[key] = e
}

func (d *DB) closeAll() {
	for _, seg := range d.segs {
		seg.f.Close()
	}
}

// degrade flips the store read-only, remembering the first cause. Caller
// holds d.mu.
func (d *DB) degrade(cause error) {
	if d.ro == nil {
		d.ro = cause
	}
}

// roError is the error every write returns once degraded. Caller holds d.mu.
func (d *DB) roError() error {
	return fmt.Errorf("diskdb: %w (cause: %v)", db.ErrReadOnly, d.ro)
}

// writable gates the write paths. Caller holds d.mu.
func (d *DB) writable() error {
	if d.closed {
		return errClosed
	}
	if d.ro != nil {
		return d.roError()
	}
	return nil
}

// rotate opens a fresh segment when the active one has reached the
// threshold. Caller holds d.mu.
func (d *DB) rotate() error {
	if d.active.size < d.opts.SegmentBytes {
		return nil
	}
	id := d.active.id + 1
	f, err := d.fs.Open(segName(id))
	if err != nil {
		if db.IsTransient(err) {
			return fmt.Errorf("diskdb: rotating to %s: %w", segName(id), err)
		}
		d.degrade(fmt.Errorf("rotation to %s failed: %v", segName(id), err))
		return d.roError()
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		if db.IsTransient(err) {
			return fmt.Errorf("diskdb: rotating to %s: %w", segName(id), err)
		}
		d.degrade(fmt.Errorf("rotation to %s failed: %v", segName(id), err))
		return d.roError()
	}
	seg := &segment{id: id, f: f, size: size}
	d.segs[id] = seg
	d.ids = append(d.ids, id)
	d.active = seg
	return nil
}

// appendGroup appends a batch's staged group — one frame per op, then
// the commit record carrying count — to the active segment in chunks of
// at most chunkBytes, then fsyncs once. total is the group's framed
// size. On failure the file is truncated back to the group's start so
// the next attempt lands on clean framing — which is what makes a blind
// re-append from db.Retry safe. If even the truncate repair fails, the
// medium is unwritable: degrade to read-only. Caller holds d.mu.
func (d *DB) appendGroup(ops []batchOp, count []byte, total int) (int64, error) {
	seg := d.active
	off := seg.size
	w := groupWriter{f: seg.f, buf: make([]byte, 0, min(total, chunkBytes))}
	for _, op := range ops {
		kind := recStagedPut
		if op.del {
			kind = recStagedDel
		}
		w.frame(kind, op.key, op.value)
	}
	w.frame(recCommit, "", count)
	w.flush()
	err := w.err
	if err == nil {
		if err = seg.f.Sync(); err == nil {
			seg.size += int64(total)
			return off, nil
		}
	}
	if terr := seg.f.Truncate(off); terr != nil {
		d.degrade(fmt.Errorf("append to %s failed (%v) and truncate repair failed: %v",
			segName(seg.id), err, terr))
		return 0, d.roError()
	}
	if !db.IsTransient(err) {
		d.degrade(fmt.Errorf("append to %s failed: %v", segName(seg.id), err))
		return 0, d.roError()
	}
	return 0, fmt.Errorf("diskdb: append to %s: %w", segName(seg.id), err)
}

// Get implements db.KV: an index lookup, then a read of the record's
// frame from its segment, checksum-verified end to end.
func (d *DB) Get(key []byte) ([]byte, bool, error) {
	d.mu.RLock()
	if d.closed {
		d.mu.RUnlock()
		return nil, false, errClosed
	}
	e, ok := d.index[string(key)]
	if !ok || e.del {
		d.mu.RUnlock()
		d.reads.Add(1)
		d.misses.Add(1)
		return nil, false, nil
	}
	seg := d.segs[e.seg]
	buf := make([]byte, e.flen)
	_, err := seg.f.ReadAt(buf, e.off)
	d.mu.RUnlock()
	d.reads.Add(1)
	if err != nil {
		return nil, false, fmt.Errorf("diskdb: reading %s@%d: %w", segName(e.seg), e.off, err)
	}
	rec, _, derr := decodeRecord(buf)
	if derr != nil || !bytes.Equal(rec.key, key) ||
		rec.kind != recStagedPut {
		if derr == nil {
			derr = errFramePayload
		}
		return nil, false, transientErr{fmt.Errorf("diskdb: reading %s@%d: %w", segName(e.seg), e.off, derr)}
	}
	d.hits.Add(1)
	return rec.value, true, nil
}

// Has implements db.KV: index-only, no disk read.
func (d *DB) Has(key []byte) (bool, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return false, errClosed
	}
	e, ok := d.index[string(key)]
	return ok && !e.del, nil
}

// Stats implements db.KV.
func (d *DB) Stats() db.Stats {
	d.mu.RLock()
	live := d.live
	d.mu.RUnlock()
	return db.Stats{
		Reads:   d.reads.Load(),
		Writes:  d.writes.Load(),
		Deletes: d.deletes.Load(),
		Hits:    d.hits.Load(),
		Misses:  d.misses.Load(),
		Entries: live,
		Repairs: d.repairs.Load(),
	}
}

// ReadOnly reports whether the store has degraded, and why.
func (d *DB) ReadOnly() (bool, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.ro != nil, d.ro
}

// Segments reports the current segment count (rotation tests).
func (d *DB) Segments() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.ids)
}

// Close releases every segment handle. The store refuses further use.
func (d *DB) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	var first error
	for _, id := range d.ids {
		if err := d.segs[id].f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// NewBatch implements db.KV.
func (d *DB) NewBatch() db.Batch { return &diskBatch{d: d} }

// batchOp is one queued batch operation. The key is copied once, into
// the string that becomes the index entry's key; the value is aliased
// until a Write succeeds or Reset is called (the db.Batch contract).
type batchOp struct {
	key   string
	value []byte
	del   bool
}

type diskBatch struct {
	d   *DB
	ops []batchOp
}

func (b *diskBatch) Put(key, value []byte) {
	b.ops = append(b.ops, batchOp{key: string(key), value: value})
}

func (b *diskBatch) Delete(key []byte) {
	b.ops = append(b.ops, batchOp{key: string(key), del: true})
}

func (b *diskBatch) Len() int { return len(b.ops) }

// Reset drops every queued op, zeroing them first so the kept backing
// array pins none of their keys or values.
func (b *diskBatch) Reset() {
	clear(b.ops)
	b.ops = b.ops[:0]
}

// Write implements db.Batch: the whole group — staged records plus the
// commit record — is appended in chunks and then fsynced once, and the
// commit record, last, is the batch's single commit point.
func (b *diskBatch) Write() error {
	if len(b.ops) == 0 {
		return nil
	}
	var count [4]byte
	binary.BigEndian.PutUint32(count[:], uint32(len(b.ops)))
	total := frameSize("", count[:])
	for _, op := range b.ops {
		total += frameSize(op.key, op.value)
	}

	d := b.d
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.writable(); err != nil {
		return err
	}
	if err := d.rotate(); err != nil {
		return err
	}
	off, err := d.appendGroup(b.ops, count[:], total)
	if err != nil {
		return err
	}
	cursor := off
	for _, op := range b.ops {
		fl := frameSize(op.key, op.value)
		d.apply(op.key, entry{seg: d.active.id, off: cursor, flen: int32(fl), del: op.del})
		cursor += int64(fl)
		if op.del {
			d.deletes.Add(1)
		} else {
			d.writes.Add(1)
		}
	}
	b.Reset()
	return nil
}

// groupWriter frames a group's records into buf and appends buf to f
// each time the next frame does not fit. A frame larger than buf is
// streamed through it in buf-sized pieces. The first failed append
// sticks in err, and nothing is appended after it.
type groupWriter struct {
	f   File
	buf []byte
	err error
}

func (w *groupWriter) frame(kind byte, key string, value []byte) {
	size := frameSize(key, value)
	if size > cap(w.buf)-len(w.buf) {
		w.flush()
		if size > cap(w.buf) {
			w.stream(kind, key, value)
			return
		}
	}
	w.buf = appendFrame(w.buf, kind, key, value)
}

// stream writes one frame too large for buf: its header, with the
// checksum taken over the payload in place, then key and value.
func (w *groupWriter) stream(kind byte, key string, value []byte) {
	var hdr [frameHeader + payloadHeader]byte
	binary.BigEndian.PutUint32(hdr[4:], uint32(payloadHeader+len(key)+len(value)))
	hdr[frameHeader] = kind
	binary.BigEndian.PutUint32(hdr[frameHeader+1:], uint32(len(key)))
	k := []byte(key)
	crc := crc32.ChecksumIEEE(hdr[frameHeader:])
	crc = crc32.Update(crc, crc32.IEEETable, k)
	crc = crc32.Update(crc, crc32.IEEETable, value)
	binary.BigEndian.PutUint32(hdr[:], crc)
	for _, p := range [][]byte{hdr[:], k, value} {
		for len(p) > 0 {
			if len(w.buf) == cap(w.buf) {
				w.flush()
			}
			n := min(len(p), cap(w.buf)-len(w.buf))
			w.buf = append(w.buf, p[:n]...)
			p = p[n:]
		}
	}
}

// flush appends what buf holds and empties it.
func (w *groupWriter) flush() {
	if w.err == nil && len(w.buf) > 0 {
		_, w.err = w.f.Append(w.buf)
	}
	w.buf = w.buf[:0]
}
