package chain

import (
	"fmt"
	"math/big"
	"sync/atomic"

	"forkwatch/internal/keccak"
	"forkwatch/internal/rlp"
	"forkwatch/internal/trie"
	"forkwatch/internal/types"
)

// Header carries a block's consensus fields.
type Header struct {
	ParentHash types.Hash
	Number     uint64
	// Time is the miner-declared unix timestamp; the difficulty filter
	// keys off the delta to the parent (paper Fig 1, bottom panel).
	Time       uint64
	Difficulty *big.Int
	GasLimit   uint64
	GasUsed    uint64
	// Coinbase receives the block reward; for pool-mined blocks it is
	// the pool address, which is how the paper attributes blocks to
	// pools (Fig 5).
	Coinbase  types.Address
	StateRoot types.Hash
	TxRoot    types.Hash
	// ReceiptRoot commits to the execution receipts, so peers can prove
	// outcomes (e.g. the contract-call classification) against the
	// header.
	ReceiptRoot types.Hash
	// Extra tags the software/fork the miner ran (the DAO fork blocks
	// famously carried "dao-hard-fork").
	Extra []byte
	// UncleHash commits to the block's uncle-header list (see uncles.go).
	UncleHash types.Hash
	// Nonce and MixDigest are the simulated PoW seal (see pow package).
	Nonce     uint64
	MixDigest types.Hash

	// hash memoizes Hash(). Headers are immutable once sealed — the miner
	// only calls SealHash before sealing, so the full-encoding hash is
	// computed at most once and then shared. atomic.Pointer keeps the memo
	// race-safe for concurrent p2p readers hashing the same header.
	hash atomic.Pointer[types.Hash]
}

// sealPayloadSize and appendSealFields encode what the PoW seal commits
// to: every header field except the seal itself (Nonce, MixDigest).
// SealHash and appendRLP share this single source of field order, which
// must stay field-for-field identical to sealFields, the tree model in
// rlp_model_test.go.
func (h *Header) sealPayloadSize() int {
	return (1 + types.HashLength) + // ParentHash
		rlp.UintSize(h.Number) +
		rlp.UintSize(h.Time) +
		rlp.BigIntSize(h.Difficulty) +
		rlp.UintSize(h.GasLimit) +
		rlp.UintSize(h.GasUsed) +
		(1 + types.AddressLength) + // Coinbase
		3*(1+types.HashLength) + // StateRoot, TxRoot, ReceiptRoot
		rlp.BytesSize(h.Extra) +
		(1 + types.HashLength) // UncleHash
}

func (h *Header) appendSealFields(dst []byte) []byte {
	dst = rlp.AppendBytes(dst, h.ParentHash[:])
	dst = rlp.AppendUint(dst, h.Number)
	dst = rlp.AppendUint(dst, h.Time)
	dst = rlp.AppendBigInt(dst, h.Difficulty)
	dst = rlp.AppendUint(dst, h.GasLimit)
	dst = rlp.AppendUint(dst, h.GasUsed)
	dst = rlp.AppendBytes(dst, h.Coinbase[:])
	dst = rlp.AppendBytes(dst, h.StateRoot[:])
	dst = rlp.AppendBytes(dst, h.TxRoot[:])
	dst = rlp.AppendBytes(dst, h.ReceiptRoot[:])
	dst = rlp.AppendBytes(dst, h.Extra)
	dst = rlp.AppendBytes(dst, h.UncleHash[:])
	return dst
}

// SealHash is the hash the PoW seal commits to (header without the seal
// fields). Not memoized: it is only hashed during mining, before the
// header is final. Encoded into a pooled buffer: zero allocations.
func (h *Header) SealHash() types.Hash {
	bp := rlp.GetBuf()
	buf := rlp.AppendListHeader(*bp, h.sealPayloadSize())
	buf = h.appendSealFields(buf)
	sum := keccak.Sum256Pooled(buf)
	*bp = buf
	rlp.PutBuf(bp)
	return types.BytesToHash(sum[:])
}

// Hash is the block identity: keccak256 of the full header encoding,
// memoized after the first call. Callers must not mutate a header after
// hashing it; mutation flows go through Copy, which drops the memo.
func (h *Header) Hash() types.Hash {
	if p := h.hash.Load(); p != nil {
		return *p
	}
	bp := rlp.GetBuf()
	buf := h.appendRLP(*bp)
	sum := keccak.Sum256Pooled(buf)
	*bp = buf
	rlp.PutBuf(bp)
	hh := types.BytesToHash(sum[:])
	h.hash.Store(&hh)
	return hh
}

// EncodedSize returns the exact length of Encode's output.
func (h *Header) EncodedSize() int {
	return rlp.ListSize(h.payloadSize())
}

func (h *Header) payloadSize() int {
	return h.sealPayloadSize() + rlp.UintSize(h.Nonce) + (1 + types.HashLength)
}

// appendRLP appends the canonical encoding onto dst; identical bytes to
// the rlp.Value tree model in rlp_model_test.go.
func (h *Header) appendRLP(dst []byte) []byte {
	dst = rlp.AppendListHeader(dst, h.payloadSize())
	dst = h.appendSealFields(dst)
	dst = rlp.AppendUint(dst, h.Nonce)
	dst = rlp.AppendBytes(dst, h.MixDigest[:])
	return dst
}

// Encode returns the canonical RLP encoding of the header in one
// exact-size allocation.
func (h *Header) Encode() []byte {
	return h.appendRLP(make([]byte, 0, h.EncodedSize()))
}

// DecodeHeader parses a header from its RLP encoding.
func DecodeHeader(enc []byte) (*Header, error) {
	v, err := rlp.Decode(enc)
	if err != nil {
		return nil, fmt.Errorf("chain: bad header encoding: %w", err)
	}
	return headerFromValue(v)
}

func headerFromValue(v rlp.Value) (*Header, error) {
	items, err := v.ListOf(14)
	if err != nil {
		return nil, fmt.Errorf("chain: bad header structure: %w", err)
	}
	h := &Header{}
	get := func(i int) ([]byte, error) { return fixedBytes(items[i], types.HashLength) }
	b, err := get(0)
	if err != nil {
		return nil, err
	}
	h.ParentHash = types.BytesToHash(b)
	if h.Number, err = items[1].AsUint(); err != nil {
		return nil, err
	}
	if h.Time, err = items[2].AsUint(); err != nil {
		return nil, err
	}
	if h.Difficulty, err = items[3].AsBigInt(); err != nil {
		return nil, err
	}
	if h.GasLimit, err = items[4].AsUint(); err != nil {
		return nil, err
	}
	if h.GasUsed, err = items[5].AsUint(); err != nil {
		return nil, err
	}
	if b, err = fixedBytes(items[6], types.AddressLength); err != nil {
		return nil, err
	}
	h.Coinbase = types.BytesToAddress(b)
	if b, err = get(7); err != nil {
		return nil, err
	}
	h.StateRoot = types.BytesToHash(b)
	if b, err = get(8); err != nil {
		return nil, err
	}
	h.TxRoot = types.BytesToHash(b)
	if b, err = get(9); err != nil {
		return nil, err
	}
	h.ReceiptRoot = types.BytesToHash(b)
	if h.Extra, err = items[10].AsBytes(); err != nil {
		return nil, err
	}
	if b, err = get(11); err != nil {
		return nil, err
	}
	h.UncleHash = types.BytesToHash(b)
	if h.Nonce, err = items[12].AsUint(); err != nil {
		return nil, err
	}
	if b, err = get(13); err != nil {
		return nil, err
	}
	h.MixDigest = types.BytesToHash(b)
	return h, nil
}

// fixedBytes decodes a fixed-width field, a hash or an address: any other
// length would not re-encode to the bytes it came from.
func fixedBytes(v rlp.Value, n int) ([]byte, error) {
	b, err := v.AsBytes()
	if err == nil && len(b) != n {
		err = fmt.Errorf("%w: %d-byte field, want %d", rlp.ErrCanonical, len(b), n)
	}
	return b, err
}

// Copy returns a deep copy of the header. The copy is built field by
// field — never by dereferencing the receiver — so the hash memo (which
// embeds a lock-free atomic) stays behind: the caller gets a header it may
// freely mutate and re-hash.
func (h *Header) Copy() *Header {
	return &Header{
		ParentHash:  h.ParentHash,
		Number:      h.Number,
		Time:        h.Time,
		Difficulty:  types.BigCopy(h.Difficulty),
		GasLimit:    h.GasLimit,
		GasUsed:     h.GasUsed,
		Coinbase:    h.Coinbase,
		StateRoot:   h.StateRoot,
		TxRoot:      h.TxRoot,
		ReceiptRoot: h.ReceiptRoot,
		Extra:       append([]byte(nil), h.Extra...),
		UncleHash:   h.UncleHash,
		Nonce:       h.Nonce,
		MixDigest:   h.MixDigest,
	}
}

// Block is a header plus its transaction list and uncle headers.
type Block struct {
	Header *Header
	Txs    []*Transaction
	Uncles []*Header

	// txRoot memoizes ComputedTxRoot(). The transaction list is immutable
	// once the block is built, and the root is a Merkle-Patricia trie
	// build — by far the most expensive part of body validation — so it is
	// computed at most once: the miner warms it in BuildBlock, the import
	// decoder warms it ahead of the insert loop, and validateBody reads the
	// memo.
	txRoot atomic.Pointer[types.Hash]
}

// Hash returns the block's identity (the header hash).
func (b *Block) Hash() types.Hash { return b.Header.Hash() }

// ComputedTxRoot returns the Merkle-Patricia root over the block's
// transaction list, memoized after the first call. Callers must not
// mutate Txs after calling it.
func (b *Block) ComputedTxRoot() types.Hash {
	if p := b.txRoot.Load(); p != nil {
		return *p
	}
	root := TxRoot(b.Txs)
	b.txRoot.Store(&root)
	return root
}

// Number returns the block height.
func (b *Block) Number() uint64 { return b.Header.Number }

// Encode returns the RLP encoding of the whole block, composed from the
// parts' append-encoders directly into one exact-size buffer (no decode
// round-trips, nothing to fail).
func (b *Block) Encode() []byte {
	txPayload := 0
	for _, tx := range b.Txs {
		txPayload += tx.EncodedSize()
	}
	unclePayload := 0
	for _, u := range b.Uncles {
		unclePayload += u.EncodedSize()
	}
	payload := b.Header.EncodedSize() + rlp.ListSize(txPayload) + rlp.ListSize(unclePayload)
	dst := make([]byte, 0, rlp.ListSize(payload))
	dst = rlp.AppendListHeader(dst, payload)
	dst = b.Header.appendRLP(dst)
	dst = rlp.AppendListHeader(dst, txPayload)
	for _, tx := range b.Txs {
		dst = tx.appendRLP(dst)
	}
	dst = rlp.AppendListHeader(dst, unclePayload)
	for _, u := range b.Uncles {
		dst = u.appendRLP(dst)
	}
	return dst
}

// DecodeBlock parses a block from its RLP encoding.
func DecodeBlock(enc []byte) (*Block, error) {
	v, err := rlp.Decode(enc)
	if err != nil {
		return nil, fmt.Errorf("chain: bad block encoding: %w", err)
	}
	items, err := v.ListOf(3)
	if err != nil {
		return nil, fmt.Errorf("chain: bad block structure: %w", err)
	}
	h, err := headerFromValue(items[0])
	if err != nil {
		return nil, err
	}
	txItems, err := items[1].AsList()
	if err != nil {
		return nil, err
	}
	blk := &Block{Header: h}
	for _, tv := range txItems {
		tx, err := txFromValue(tv)
		if err != nil {
			return nil, err
		}
		blk.Txs = append(blk.Txs, tx)
	}
	uncleItems, err := items[2].AsList()
	if err != nil {
		return nil, err
	}
	for _, uv := range uncleItems {
		u, err := headerFromValue(uv)
		if err != nil {
			return nil, err
		}
		blk.Uncles = append(blk.Uncles, u)
	}
	return blk, nil
}

// ReceiptRoot computes the Merkle-Patricia root over the receipt list,
// keyed by RLP(index) as in Ethereum.
func ReceiptRoot(receipts []*Receipt) types.Hash {
	return listRoot(len(receipts), func(i int) []byte { return receipts[i].Encode() })
}

// TxRoot computes the Merkle-Patricia root over the transaction list,
// keyed by RLP(index) as in Ethereum.
func TxRoot(txs []*Transaction) types.Hash {
	return listRoot(len(txs), func(i int) []byte { return txs[i].Encode() })
}

// listRoot is the root of a fresh trie holding enc(i) under RLP(i) for
// every i < n. Only the root survives: the trie hashes its nodes into a
// batch that discards them, so it needs no store.
func listRoot(n int, enc func(i int) []byte) types.Hash {
	tr := trie.NewEmpty(nil)
	var kb [9]byte
	for i := 0; i < n; i++ {
		if err := tr.Update(rlp.AppendUint(kb[:0], uint64(i)), enc(i)); err != nil {
			panic(err) // a fresh trie holds every node: nothing to resolve
		}
	}
	return tr.CommitTo(discardBatch{})
}

// discardBatch is a db.Batch that drops every write.
type discardBatch struct{}

func (discardBatch) Put(key, value []byte) {}
func (discardBatch) Delete(key []byte)     {}
func (discardBatch) Len() int              { return 0 }
func (discardBatch) Write() error          { return nil }
func (discardBatch) Reset()                {}
