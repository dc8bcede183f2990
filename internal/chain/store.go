package chain

import (
	"encoding/binary"
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

// Block reads and decodes a block by hash.
func (s *Store) Block(h types.Hash) (*Block, bool, error) {
	enc, ok, err := s.kv.Get(hashKey(prefixBlock, h))
	if err != nil {
		return nil, false, fmt.Errorf("chain: reading block %s: %w", h, err)
	}
	if !ok {
		return nil, false, nil
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
	enc, ok, err := s.kv.Get(hashKey(prefixReceipts, h))
	if err != nil {
		return nil, false, fmt.Errorf("chain: reading receipts %s: %w", h, err)
	}
	if !ok {
		return nil, false, nil
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

// TxLookup locates a transaction by hash: the hash of the block that
// included it and the transaction's position in that block. Entries are
// written in the same commit as the block itself, so a lookup can never
// race ahead of the block it points at, and the chain shows a block as
// canonical only once its commit has landed. Lookups replace
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
// number.
func (s *Store) Transaction(txHash types.Hash) (*Transaction, TxLookup, uint64, bool, error) {
	lk, ok, err := s.TxIndex(txHash)
	if err != nil || !ok {
		return nil, TxLookup{}, 0, false, err
	}
	b, ok, err := s.Block(lk.BlockHash)
	if err != nil {
		return nil, TxLookup{}, 0, false, err
	}
	if !ok || int(lk.Index) >= len(b.Txs) {
		return nil, TxLookup{}, 0, false, fmt.Errorf("%w: tx index %s points at %s[%d]", db.ErrCorrupt, txHash, lk.BlockHash, lk.Index)
	}
	return b.Txs[lk.Index], lk, b.Number(), true, nil
}

// Receipt resolves a transaction's receipt by hash through the index.
func (s *Store) Receipt(txHash types.Hash) (*Receipt, TxLookup, bool, error) {
	lk, ok, err := s.TxIndex(txHash)
	if err != nil || !ok {
		return nil, TxLookup{}, false, err
	}
	receipts, ok, err := s.Receipts(lk.BlockHash)
	if err != nil {
		return nil, TxLookup{}, false, err
	}
	if !ok || int(lk.Index) >= len(receipts) {
		return nil, TxLookup{}, false, fmt.Errorf("%w: tx index %s points at receipts %s[%d]", db.ErrCorrupt, txHash, lk.BlockHash, lk.Index)
	}
	return receipts[lk.Index], lk, true, nil
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
