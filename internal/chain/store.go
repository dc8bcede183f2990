package chain

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"

	"forkwatch/internal/db"
	"forkwatch/internal/rlp"
	"forkwatch/internal/types"
)

// Store is the KV-backed persistence schema for one chain: blocks,
// receipts, total difficulty, per-block state roots, the canonical number
// index, the head marker and the write-ahead log, all in the same db.KV
// that holds the state trie nodes. Keys are prefixed with a single byte so
// the content-addressed trie namespace (raw 32-byte hashes) can never
// collide with chain records (33- or 9-byte keys).
//
// The Store does no caching and no locking of its own: Blockchain holds
// the lock and keeps decoded blocks in memory; export tooling reads a
// Store directly.
//
// Every getter returns (value, ok, error): ok distinguishes absence, the
// error reports a failed read or a record that failed an integrity check
// (wrapping db.ErrCorrupt). All mutations queue into a caller-owned
// db.Batch — including the canonical index and head marker — so a whole
// commit, one block's persistence or a run's, reaches the store as one
// batch behind its WAL record, and a torn write is repairable from the WAL
// (see wal.go).
type Store struct {
	kv db.KV
	// walSeq is the sequence number of the newest committed WAL record
	// (see wal.go). Mutated only under the owning Blockchain's lock.
	walSeq uint64
}

// Key prefixes of the chain schema.
const (
	prefixBlock     = 'b' // prefixBlock + hash -> block RLP
	prefixReceipts  = 'r' // prefixReceipts + block hash -> receipt-list RLP
	prefixTD        = 't' // prefixTD + hash -> total difficulty (big-endian bytes)
	prefixStateRoot = 's' // prefixStateRoot + hash -> committed state root
	prefixCanon     = 'n' // prefixCanon + 8-byte BE number -> canonical hash
	prefixWAL       = 'w' // prefixWAL + 8-byte BE seq -> checksummed WAL record
	prefixTxIndex   = 'x' // prefixTxIndex + tx hash -> block hash || 4-byte BE index
)

// keyHead marks the canonical head hash.
var keyHead = []byte("Head")

// NewStore wraps kv with the chain schema.
func NewStore(kv db.KV) *Store { return &Store{kv: kv} }

// KV returns the underlying store (shared with the state trie).
func (s *Store) KV() db.KV { return s.kv }

func hashKey(prefix byte, h types.Hash) []byte {
	k := make([]byte, 1+types.HashLength)
	k[0] = prefix
	copy(k[1:], h.Bytes())
	return k
}

func canonKey(n uint64) []byte {
	k := make([]byte, 9)
	k[0] = prefixCanon
	binary.BigEndian.PutUint64(k[1:], n)
	return k
}

// PutBlock queues the block record under its hash.
func (s *Store) PutBlock(batch db.Batch, b *Block) {
	batch.Put(hashKey(prefixBlock, b.Hash()), b.Encode())
}

// record reads the record of block h under prefix; what names the
// record in a read error.
func (s *Store) record(prefix byte, h types.Hash, what string) ([]byte, bool, error) {
	enc, ok, err := s.kv.Get(hashKey(prefix, h))
	if err != nil {
		return nil, false, fmt.Errorf("chain: reading %s %s: %w", what, h, err)
	}
	return enc, ok, nil
}

// Block reads and decodes a block by hash.
func (s *Store) Block(h types.Hash) (*Block, bool, error) {
	enc, ok, err := s.record(prefixBlock, h, "block")
	if err != nil || !ok {
		return nil, false, err
	}
	b, err := DecodeBlock(enc)
	if err != nil {
		return nil, false, fmt.Errorf("%w: stored block %s: %v", db.ErrCorrupt, h, err)
	}
	return b, true, nil
}

// HasBlock reports whether a block record exists.
func (s *Store) HasBlock(h types.Hash) (bool, error) {
	return s.kv.Has(hashKey(prefixBlock, h))
}

// PutReceipts queues the receipt list of block h.
func (s *Store) PutReceipts(batch db.Batch, h types.Hash, receipts []*Receipt) {
	payload := 0
	for _, r := range receipts {
		payload += r.EncodedSize()
	}
	dst := rlp.AppendListHeader(make([]byte, 0, rlp.ListSize(payload)), payload)
	for _, r := range receipts {
		dst = r.appendRLP(dst)
	}
	batch.Put(hashKey(prefixReceipts, h), dst)
}

// Receipts reads and decodes the receipt list of block h.
func (s *Store) Receipts(h types.Hash) ([]*Receipt, bool, error) {
	enc, ok, err := s.record(prefixReceipts, h, "receipts")
	if err != nil || !ok {
		return nil, false, err
	}
	v, err := rlp.Decode(enc)
	if err != nil {
		return nil, false, fmt.Errorf("%w: stored receipts %s: %v", db.ErrCorrupt, h, err)
	}
	items, err := v.AsList()
	if err != nil {
		return nil, false, fmt.Errorf("%w: stored receipts %s: %v", db.ErrCorrupt, h, err)
	}
	receipts := make([]*Receipt, 0, len(items))
	for _, it := range items {
		r, err := receiptFromValue(it)
		if err != nil {
			return nil, false, fmt.Errorf("%w: stored receipt in %s: %v", db.ErrCorrupt, h, err)
		}
		receipts = append(receipts, r)
	}
	return receipts, true, nil
}

// PutTD queues the total difficulty of block h.
func (s *Store) PutTD(batch db.Batch, h types.Hash, td *big.Int) {
	batch.Put(hashKey(prefixTD, h), td.Bytes())
}

// TD reads the total difficulty of block h.
func (s *Store) TD(h types.Hash) (*big.Int, bool, error) {
	enc, ok, err := s.kv.Get(hashKey(prefixTD, h))
	if err != nil {
		return nil, false, fmt.Errorf("chain: reading TD %s: %w", h, err)
	}
	if !ok {
		return nil, false, nil
	}
	return new(big.Int).SetBytes(enc), true, nil
}

// PutStateRoot queues the committed state root of block h.
func (s *Store) PutStateRoot(batch db.Batch, h, root types.Hash) {
	batch.Put(hashKey(prefixStateRoot, h), root.Bytes())
}

// StateRoot reads the committed state root of block h.
func (s *Store) StateRoot(h types.Hash) (types.Hash, bool, error) {
	enc, ok, err := s.kv.Get(hashKey(prefixStateRoot, h))
	if err != nil {
		return types.Hash{}, false, fmt.Errorf("chain: reading state root %s: %w", h, err)
	}
	if !ok {
		return types.Hash{}, false, nil
	}
	return types.BytesToHash(enc), true, nil
}

// PutCanon queues the canonical hash for height n. The canonical index
// moves inside the same atomic batch as the block data it points at, so a
// torn write can never expose a canon entry whose block is missing.
func (s *Store) PutCanon(batch db.Batch, n uint64, h types.Hash) {
	batch.Put(canonKey(n), h.Bytes())
}

// DeleteCanon queues removal of the canonical entry for height n (reorg to
// a shorter, heavier chain).
func (s *Store) DeleteCanon(batch db.Batch, n uint64) {
	batch.Delete(canonKey(n))
}

// CanonHash reads the canonical hash at height n.
func (s *Store) CanonHash(n uint64) (types.Hash, bool, error) {
	enc, ok, err := s.kv.Get(canonKey(n))
	if err != nil {
		return types.Hash{}, false, fmt.Errorf("chain: reading canon %d: %w", n, err)
	}
	if !ok {
		return types.Hash{}, false, nil
	}
	return types.BytesToHash(enc), true, nil
}

// PutHead queues h as the canonical head.
func (s *Store) PutHead(batch db.Batch, h types.Hash) {
	batch.Put(keyHead, h.Bytes())
}

// Head reads the canonical head hash.
func (s *Store) Head() (types.Hash, bool, error) {
	enc, ok, err := s.kv.Get(keyHead)
	if err != nil {
		return types.Hash{}, false, fmt.Errorf("chain: reading head: %w", err)
	}
	if !ok {
		return types.Hash{}, false, nil
	}
	return types.BytesToHash(enc), true, nil
}

// TxLookup locates a transaction by hash: the hash of the canonical block
// that included it and the transaction's position in that block. Entries
// are written in the commit that makes the block canonical and deleted in
// the one that drops it, so a lookup can never race ahead of the block it
// points at, and resolves only along the canonical chain. Lookups replace
// the O(n) canonical-chain scan a serving layer would otherwise need for
// eth_getTransactionByHash / eth_getTransactionReceipt.
type TxLookup struct {
	BlockHash types.Hash
	Index     uint32
}

// PutTxIndex queues the lookup entry of one transaction.
func (s *Store) PutTxIndex(batch db.Batch, txHash, blockHash types.Hash, index uint32) {
	v := make([]byte, types.HashLength+4)
	copy(v, blockHash.Bytes())
	binary.BigEndian.PutUint32(v[types.HashLength:], index)
	batch.Put(hashKey(prefixTxIndex, txHash), v)
}

// PutBlockTxIndices queues lookup entries for every transaction of b.
func (s *Store) PutBlockTxIndices(batch db.Batch, b *Block) {
	h := b.Hash()
	for i, tx := range b.Txs {
		s.PutTxIndex(batch, tx.Hash(), h, uint32(i))
	}
}

// DeleteTxIndex queues removal of a transaction's lookup entry (a reorg
// dropped the only block that held it).
func (s *Store) DeleteTxIndex(batch db.Batch, txHash types.Hash) {
	batch.Delete(hashKey(prefixTxIndex, txHash))
}

// TxIndex reads the lookup entry of a transaction hash.
func (s *Store) TxIndex(txHash types.Hash) (TxLookup, bool, error) {
	enc, ok, err := s.kv.Get(hashKey(prefixTxIndex, txHash))
	if err != nil {
		return TxLookup{}, false, fmt.Errorf("chain: reading tx index %s: %w", txHash, err)
	}
	if !ok {
		return TxLookup{}, false, nil
	}
	if len(enc) != types.HashLength+4 {
		return TxLookup{}, false, fmt.Errorf("%w: tx index %s is %d bytes", db.ErrCorrupt, txHash, len(enc))
	}
	return TxLookup{
		BlockHash: types.BytesToHash(enc[:types.HashLength]),
		Index:     binary.BigEndian.Uint32(enc[types.HashLength:]),
	}, true, nil
}

// Transaction resolves a transaction by hash through the index: the
// transaction itself, its lookup entry, and the containing block's
// number. It is a point read: only the indexed element of the block's
// transaction list is decoded.
func (s *Store) Transaction(txHash types.Hash) (*Transaction, TxLookup, uint64, bool, error) {
	lk, number, txs, ok, err := s.locate(txHash)
	if err != nil || !ok {
		return nil, TxLookup{}, 0, false, err
	}
	elem, err := rlp.Element(txs, int(lk.Index))
	if err != nil {
		return nil, TxLookup{}, 0, false, lk.corrupt(txHash, "block", err)
	}
	tx, err := DecodeTx(elem)
	if err != nil {
		return nil, TxLookup{}, 0, false, lk.corrupt(txHash, "block", err)
	}
	return tx, lk, number, true, nil
}

// Receipt resolves a transaction's receipt by hash through the index: the
// receipt, its lookup entry, and the containing block's number. Like
// Transaction it decodes only the indexed element of the receipt list.
func (s *Store) Receipt(txHash types.Hash) (*Receipt, TxLookup, uint64, bool, error) {
	lk, number, _, ok, err := s.locate(txHash)
	if err != nil || !ok {
		return nil, TxLookup{}, 0, false, err
	}
	enc, ok, err := s.record(prefixReceipts, lk.BlockHash, "receipts")
	if err != nil {
		return nil, TxLookup{}, 0, false, err
	}
	if !ok {
		return nil, TxLookup{}, 0, false, lk.corrupt(txHash, "receipts", errMissing)
	}
	r, err := receiptAt(enc, int(lk.Index))
	if err != nil {
		return nil, TxLookup{}, 0, false, lk.corrupt(txHash, "receipts", err)
	}
	return r, lk, number, true, nil
}

var errMissing = errors.New("record missing")

// corrupt reports an index entry that does not resolve: what names the
// record it points into.
func (lk TxLookup) corrupt(txHash types.Hash, what string, err error) error {
	return fmt.Errorf("%w: tx index %s points at %s %s[%d]: %v", db.ErrCorrupt, txHash, what, lk.BlockHash, lk.Index, err)
}

// locate reads the index entry of txHash and the block record it points
// at, and splits that record into the block's number and the content of
// its transaction list.
func (s *Store) locate(txHash types.Hash) (lk TxLookup, number uint64, txs []byte, ok bool, err error) {
	lk, ok, err = s.TxIndex(txHash)
	if err != nil || !ok {
		return TxLookup{}, 0, nil, false, err
	}
	enc, ok, err := s.record(prefixBlock, lk.BlockHash, "block")
	if err != nil {
		return TxLookup{}, 0, nil, false, err
	}
	if !ok {
		return TxLookup{}, 0, nil, false, lk.corrupt(txHash, "block", errMissing)
	}
	if number, txs, err = splitBlock(enc); err != nil {
		return TxLookup{}, 0, nil, false, lk.corrupt(txHash, "block", err)
	}
	return lk, number, txs, true, nil
}

// splitBlock reads a block record by item headers alone: the record is
// one list of three lists (header, transactions, uncles) with nothing
// after it, and the header's second field is its canonical number. It
// returns that number and the content of the transaction list.
func splitBlock(enc []byte) (number uint64, txs []byte, err error) {
	body, err := onlyList(enc)
	if err != nil {
		return 0, nil, err
	}
	header, rest, err := splitList(body)
	if err != nil {
		return 0, nil, err
	}
	_, _, fields, err := rlp.Split(header) // ParentHash
	if err != nil {
		return 0, nil, err
	}
	isList, num, _, err := rlp.Split(fields)
	if err != nil {
		return 0, nil, err
	}
	if isList {
		return 0, nil, fmt.Errorf("%w: block number is a list", rlp.ErrType)
	}
	if number, err = rlp.Bytes(num).AsUint(); err != nil {
		return 0, nil, err
	}
	if txs, rest, err = splitList(rest); err != nil {
		return 0, nil, err
	}
	if _, rest, err = splitList(rest); err != nil { // uncles
		return 0, nil, err
	}
	if len(rest) != 0 {
		return 0, nil, fmt.Errorf("%w: block of more than three items", rlp.ErrType)
	}
	return number, txs, nil
}

// receiptAt decodes element i of a receipts record.
func receiptAt(enc []byte, i int) (*Receipt, error) {
	list, err := onlyList(enc)
	if err != nil {
		return nil, err
	}
	elem, err := rlp.Element(list, i)
	if err != nil {
		return nil, err
	}
	v, err := rlp.Decode(elem)
	if err != nil {
		return nil, err
	}
	return receiptFromValue(v)
}

// splitList reads the list at the front of b: its content and the bytes
// after it.
func splitList(b []byte) (content, rest []byte, err error) {
	isList, content, rest, err := rlp.Split(b)
	if err == nil && !isList {
		err = fmt.Errorf("%w: expected list, have bytes", rlp.ErrType)
	}
	return content, rest, err
}

// onlyList is splitList on a whole record: nothing may follow the list.
func onlyList(enc []byte) ([]byte, error) {
	content, rest, err := splitList(enc)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("%w: %d bytes", rlp.ErrTrailing, len(rest))
	}
	return content, err
}

// receiptFromValue rebuilds a Receipt from its decoded RLP value.
func receiptFromValue(v rlp.Value) (*Receipt, error) {
	items, err := v.ListOf(5)
	if err != nil {
		return nil, fmt.Errorf("chain: bad receipt structure: %w", err)
	}
	r := &Receipt{}
	b, err := items[0].AsBytes()
	if err != nil {
		return nil, err
	}
	r.TxHash = types.BytesToHash(b)
	status, err := items[1].AsUint()
	if err != nil {
		return nil, err
	}
	r.Status = status == 1
	if r.GasUsed, err = items[2].AsUint(); err != nil {
		return nil, err
	}
	if b, err = items[3].AsBytes(); err != nil {
		return nil, err
	}
	r.ContractAddress = types.BytesToAddress(b)
	call, err := items[4].AsUint()
	if err != nil {
		return nil, err
	}
	r.ContractCall = call == 1
	return r, nil
}
