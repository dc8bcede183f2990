package chain

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"

	"forkwatch/internal/db"
	"forkwatch/internal/rlp"
	"forkwatch/internal/trie"
)

// Write-ahead log: the crash-consistency protocol of the chain store.
//
// A commit is what the chain hands the store in one piece: one block
// (InsertBlock, MineBlock, genesis) or a run of blocks (InsertChain). Its
// persistence spans many keys — state trie nodes and contract code, then
// per block the body, receipts, total difficulty, state root and tx index
// entries, the canonical index and the head marker — and it reaches the
// store as ONE batch, in this order:
//
//	[state nodes…, WAL record, chain records…, watermark]
//
// The WAL record is the commit's chain records as one checksummed value
// under a WAL slot key; the watermark ('w'+'a' -> seq) names the newest
// record whose records have fully applied. Every store in this repository
// writes a batch atomically — diskdb commits it behind one commit record,
// and its recovery scan drops a torn group whole — but a device that tore a
// batch mid-write could leave any prefix of it applied, and every prefix
// is one recovery resolves (the WAL tests drive such a device):
//
//  1. A prefix short of the WAL record holds only state nodes. They are
//     content-addressed and no chain record references their roots yet,
//     so they are invisible garbage: the store reopens at the previous
//     commit.
//  2. A prefix holding the WAL record holds every state node before it, so
//     the commit is durable iff its WAL record is. Recovery redoes the
//     record — every operation is a blind write, so redo is idempotent —
//     and the commit lands whole, whether the tear fell inside the chain
//     records or just short of the watermark.
//  3. The watermark guards the converse hazard: recovery redoes the
//     newest valid record only when the watermark lags it, so a record
//     wholly applied whose at-rest copy then bit-rotted is never
//     "repaired" backwards by replaying its predecessor.
//
// A crash therefore loses whole commits — on the import path a whole run —
// and never half of one. (diskdb batches go further: one group behind a
// commit marker, so a torn one is dropped whole on open and case 1 is the
// only one a disk crash produces.)
//
// The log is a two-slot ring ('w'+0, 'w'+1): record seq lands in slot
// seq%2, naturally pruning the record before last by overwrite, and seq
// counts commits, not blocks. Recovery (RecoverWAL) reads both slots,
// redoes the newest valid record (older records are necessarily fully
// applied already), truncates (deletes) records that fail their checksum,
// and then verifies the head invariant. A store that is still
// inconsistent after redo — only possible under double faults like
// bit-rot of the newest WAL record on top of a torn batch — surfaces
// ErrCorruptStore, and the caller falls back to re-import/resync.
//
// Record layout: 4-byte big-endian CRC-32 (IEEE) over the payload,
// followed by the payload: RLP [seq, [[key, value, del], ...]].

// ErrCorruptStore reports a chain store that WAL recovery cannot repair:
// the surviving records are inconsistent (missing bodies, broken canon
// links, unreadable head). The only way forward is re-import or resync.
var ErrCorruptStore = errors.New("chain: store corrupt beyond WAL recovery")

// walSlots is the ring size: the live record plus its predecessor.
const walSlots = 2

func walSlotKey(slot uint64) []byte {
	return []byte{prefixWAL, byte(slot)}
}

// keyWALApplied is the applied watermark: the highest seq whose batch has
// fully applied, as 8 big-endian bytes.
var keyWALApplied = []byte{prefixWAL, 'a'}

// walOp is one staged store mutation.
type walOp struct {
	Key   []byte
	Value []byte
	Del   bool
}

// WALBatch stages one commit's chain records — a block's, or a whole
// run's — for a WAL-protected commit. It implements db.Batch so the
// Store.Put* helpers queue into it, but the staged operations only reach
// the device through Store.CommitWAL.
type WALBatch struct {
	ops []walOp
}

// NewWALBatch returns an empty staging batch.
func (s *Store) NewWALBatch() *WALBatch { return &WALBatch{} }

// Put implements db.Batch.
func (b *WALBatch) Put(key, value []byte) {
	b.ops = append(b.ops, walOp{Key: append([]byte(nil), key...), Value: value})
}

// Delete implements db.Batch.
func (b *WALBatch) Delete(key []byte) {
	b.ops = append(b.ops, walOp{Key: append([]byte(nil), key...), Del: true})
}

// Len implements db.Batch.
func (b *WALBatch) Len() int { return len(b.ops) }

// Reset implements db.Batch. The dropped ops are zeroed first, so the
// kept backing array pins none of their keys or values.
func (b *WALBatch) Reset() {
	clear(b.ops)
	b.ops = b.ops[:0]
}

// Write implements db.Batch. Staged batches must go through
// Store.CommitWAL, which owns the commit protocol.
func (b *WALBatch) Write() error {
	return errors.New("chain: WALBatch must be committed via Store.CommitWAL")
}

// CommitWAL lands one commit as one write: batch — a batch of the store's
// KV holding whatever must precede the commit point, the commit's state
// nodes — gains the checksummed WAL record of b's operations, the
// operations themselves and the applied watermark, in that order, and is
// written.
//
// A nil return means the commit is durable and fully applied. An error
// from a write that applied nothing means nothing committed. An error
// from a torn write (the store crashed) leaves a prefix that RecoverWAL
// resolves on reopen: to the previous commit, or — when the WAL record
// landed — to this one.
func (s *Store) CommitWAL(batch db.Batch, b *WALBatch) error {
	seq := s.walSeq + 1
	batch.Put(walSlotKey(seq%walSlots), encodeWALRecord(seq, b.ops))
	queueApply(batch, seq, b.ops)
	if err := batch.Write(); err != nil {
		return fmt.Errorf("chain: committing WAL record %d: %w", seq, err)
	}
	s.walSeq = seq
	return nil
}

// queueApply queues record seq's operations and then the watermark that
// marks it applied.
func queueApply(batch db.Batch, seq uint64, ops []walOp) {
	for _, op := range ops {
		if op.Del {
			batch.Delete(op.Key)
		} else {
			batch.Put(op.Key, op.Value)
		}
	}
	batch.Put(keyWALApplied, binary.BigEndian.AppendUint64(nil, seq))
}

// RecoverWAL repairs the store after a crash: records failing their
// checksum are truncated, the newest valid record is redone (idempotent
// blind writes) if the applied watermark lags it, and the head invariant
// is verified. Returns ErrCorruptStore when the store remains
// inconsistent after redo.
//
// Only the newest record is ever a redo candidate: commits are
// serialized, and a torn apply crashes the store, so any older record's
// batch must have fully applied before the newer commit began. The
// watermark guards the converse hazard — a record wholly applied whose
// at-rest copy then bit-rotted must not be "repaired" backwards by
// replaying its surviving predecessor.
func (s *Store) RecoverWAL() error {
	type slotRec struct {
		seq uint64
		ops []walOp
	}
	var recs []slotRec
	for slot := uint64(0); slot < walSlots; slot++ {
		enc, ok, err := s.kv.Get(walSlotKey(slot))
		if err != nil {
			return fmt.Errorf("chain: reading WAL slot %d: %w", slot, err)
		}
		if !ok {
			continue
		}
		seq, ops, err := decodeWALRecord(enc)
		if err != nil {
			// Bit-rot in a WAL record: truncate it, in a batch of its
			// own. If it was the newest record and its batch tore, the
			// head check below catches the inconsistency.
			truncate := s.kv.NewBatch()
			truncate.Delete(walSlotKey(slot))
			if derr := truncate.Write(); derr != nil {
				return fmt.Errorf("chain: truncating WAL slot %d: %w", slot, derr)
			}
			continue
		}
		recs = append(recs, slotRec{seq: seq, ops: ops})
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].seq < recs[j].seq })

	var applied uint64
	if enc, ok, err := s.kv.Get(keyWALApplied); err != nil {
		return fmt.Errorf("chain: reading WAL watermark: %w", err)
	} else if ok && len(enc) == 8 {
		applied = binary.BigEndian.Uint64(enc)
	}

	s.walSeq = applied
	if len(recs) > 0 {
		newest := recs[len(recs)-1]
		if newest.seq > applied {
			batch := s.kv.NewBatch()
			queueApply(batch, newest.seq, newest.ops)
			if err := batch.Write(); err != nil {
				return fmt.Errorf("chain: redoing WAL record %d: %w", newest.seq, err)
			}
		}
		if newest.seq > s.walSeq {
			s.walSeq = newest.seq
		}
	}
	return s.verifyHead()
}

// verifyHead checks the durable head invariant after recovery: the head
// marker resolves to a decodable block whose canonical index entry, state
// root record and committed state trie root are all present.
func (s *Store) verifyHead() error {
	headHash, ok, err := s.Head()
	if err != nil {
		return err
	}
	if !ok {
		return nil // empty store: nothing committed, nothing to verify
	}
	head, ok, err := s.Block(headHash)
	if err != nil || !ok {
		return fmt.Errorf("%w: head block %s unreadable (%v)", ErrCorruptStore, headHash, err)
	}
	canon, ok, err := s.CanonHash(head.Number())
	if err != nil || !ok || canon != headHash {
		return fmt.Errorf("%w: canon index at %d does not match head %s (%v)", ErrCorruptStore, head.Number(), headHash, err)
	}
	root, ok, err := s.StateRoot(headHash)
	if err != nil || !ok {
		return fmt.Errorf("%w: no state root for head %s (%v)", ErrCorruptStore, headHash, err)
	}
	// An empty trie stores no root node (its EmptyRoot is implicit), so
	// only non-empty states are probed.
	if !root.IsZero() && root != trie.EmptyRoot {
		hasRoot, err := s.kv.Has(root.Bytes())
		if err != nil {
			return fmt.Errorf("chain: probing head state root: %w", err)
		}
		if !hasRoot {
			return fmt.Errorf("%w: head state root %s missing from store", ErrCorruptStore, root)
		}
	}
	return nil
}

// encodeWALRecord serialises one record, in one exact-size buffer:
// crc32(payload) || payload with payload = RLP [seq, [[key, value, del], ...]].
func encodeWALRecord(seq uint64, ops []walOp) []byte {
	// An op's payload: its key, its value and the one-byte del flag.
	opSize := func(op walOp) int { return rlp.BytesSize(op.Key) + rlp.BytesSize(op.Value) + 1 }
	opsPayload := 0
	for _, op := range ops {
		opsPayload += rlp.ListSize(opSize(op))
	}
	payload := rlp.UintSize(seq) + rlp.ListSize(opsPayload)
	rec := make([]byte, 4, 4+rlp.ListSize(payload))
	rec = rlp.AppendListHeader(rec, payload)
	rec = rlp.AppendUint(rec, seq)
	rec = rlp.AppendListHeader(rec, opsPayload)
	for _, op := range ops {
		rec = rlp.AppendListHeader(rec, opSize(op))
		rec = rlp.AppendBytes(rec, op.Key)
		rec = rlp.AppendBytes(rec, op.Value)
		del := uint64(0)
		if op.Del {
			del = 1
		}
		rec = rlp.AppendUint(rec, del)
	}
	binary.BigEndian.PutUint32(rec, crc32.ChecksumIEEE(rec[4:]))
	return rec
}

// decodeWALRecord inverts encodeWALRecord, failing (with db.ErrCorrupt)
// on checksum or structure mismatch.
func decodeWALRecord(enc []byte) (uint64, []walOp, error) {
	if len(enc) < 4 {
		return 0, nil, fmt.Errorf("%w: WAL record of %d bytes", db.ErrCorrupt, len(enc))
	}
	payload := enc[4:]
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(enc) {
		return 0, nil, fmt.Errorf("%w: WAL record checksum mismatch", db.ErrCorrupt)
	}
	v, err := rlp.Decode(payload)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: WAL record payload: %v", db.ErrCorrupt, err)
	}
	items, err := v.ListOf(2)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: WAL record structure: %v", db.ErrCorrupt, err)
	}
	seq, err := items[0].AsUint()
	if err != nil {
		return 0, nil, fmt.Errorf("%w: WAL record seq: %v", db.ErrCorrupt, err)
	}
	opItems, err := items[1].AsList()
	if err != nil {
		return 0, nil, fmt.Errorf("%w: WAL record ops: %v", db.ErrCorrupt, err)
	}
	ops := make([]walOp, 0, len(opItems))
	for _, it := range opItems {
		f, err := it.ListOf(3)
		if err != nil {
			return 0, nil, fmt.Errorf("%w: WAL op structure: %v", db.ErrCorrupt, err)
		}
		key, err := f[0].AsBytes()
		if err != nil {
			return 0, nil, fmt.Errorf("%w: WAL op key: %v", db.ErrCorrupt, err)
		}
		val, err := f[1].AsBytes()
		if err != nil {
			return 0, nil, fmt.Errorf("%w: WAL op value: %v", db.ErrCorrupt, err)
		}
		del, err := f[2].AsUint()
		if err != nil || del > 1 {
			return 0, nil, fmt.Errorf("%w: WAL op del flag: %v", db.ErrCorrupt, err)
		}
		ops = append(ops, walOp{Key: key, Value: val, Del: del == 1})
	}
	return seq, ops, nil
}
