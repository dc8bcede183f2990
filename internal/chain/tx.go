package chain

import (
	"errors"
	"fmt"
	"math/big"
	"sync/atomic"

	"forkwatch/internal/keccak"
	"forkwatch/internal/rlp"
	"forkwatch/internal/types"
)

// Transaction is one state transition: a value transfer, contract call or
// contract creation.
//
// Authentication substitution: real Ethereum transactions carry a
// secp256k1 signature from which the sender is recovered; forkwatch
// carries the sender address plus a keccak "signature tag" binding the
// sender to the signed payload. This preserves the property the paper's
// echo analysis depends on — a transaction broadcast on one chain can be
// rebroadcast verbatim on the other and will execute iff the sender's
// nonce/balance still permit — including the EIP-155 fix: when ChainID is
// non-zero the tag covers it, so the other chain rejects the replay.
type Transaction struct {
	Nonce    uint64
	GasPrice *big.Int
	GasLimit uint64
	// To is the recipient; nil creates a contract.
	To    *types.Address
	Value *big.Int
	Data  []byte
	// ChainID is 0 for legacy (replayable) transactions, or the EIP-155
	// chain id the sender bound the transaction to.
	ChainID uint64

	// From is the authenticated sender (see the substitution note).
	From types.Address
	// SigTag binds From to the payload; set by Sign.
	SigTag types.Hash

	// hash memoizes Hash(). A transaction is hashed many times on the hot
	// path — once when mined, once per observer event, and again on every
	// chain it echoes onto — and the identity is stable once signed, so
	// the digest is computed once. Sign drops the memo. atomic.Pointer
	// keeps concurrent readers (both chains replaying the same tx object)
	// race-free.
	hash atomic.Pointer[types.Hash]
	// sigOK latches a successful VerifySig. Only success is cached:
	// verification always recomputes the payload hash until it passes
	// once, so a transaction tampered with after signing still fails.
	sigOK atomic.Bool
}

// Tx errors.
var (
	ErrBadSignature      = errors.New("chain: invalid transaction signature tag")
	ErrWrongChainID      = errors.New("chain: transaction signed for another chain")
	ErrNonceTooLow       = errors.New("chain: nonce too low")
	ErrNonceTooHigh      = errors.New("chain: nonce too high")
	ErrInsufficientFunds = errors.New("chain: insufficient funds for gas * price + value")
	ErrIntrinsicGas      = errors.New("chain: intrinsic gas exceeds gas limit")
	ErrKnownTx           = errors.New("chain: transaction already known")
)

// NewTransaction constructs an unsigned transfer/call transaction.
func NewTransaction(nonce uint64, to *types.Address, value *big.Int, gasLimit uint64, gasPrice *big.Int, data []byte) *Transaction {
	if value == nil {
		value = new(big.Int)
	}
	if gasPrice == nil {
		gasPrice = new(big.Int)
	}
	return &Transaction{
		Nonce:    nonce,
		GasPrice: types.BigCopy(gasPrice),
		GasLimit: gasLimit,
		To:       to,
		Value:    types.BigCopy(value),
		Data:     append([]byte(nil), data...),
	}
}

// Sign authenticates the transaction as coming from `from`, binding it to
// chainID (0 leaves it replayable across the partition).
func (tx *Transaction) Sign(from types.Address, chainID uint64) *Transaction {
	tx.From = from
	tx.ChainID = chainID
	tx.SigTag = tx.sigPayloadHash()
	tx.hash.Store(nil) // identity changed: drop the memoized digest
	tx.sigOK.Store(false)
	return tx
}

// SignLazy records the sender and chain binding but defers the signature
// tag (and therefore the payload keccak) to a later FinishSign. The
// simulation engine uses this to fan signing out across a worker pool
// after the day's deterministic transaction plan is drawn; the transaction
// must not be validated, hashed or broadcast before FinishSign runs.
func (tx *Transaction) SignLazy(from types.Address, chainID uint64) *Transaction {
	tx.From = from
	tx.ChainID = chainID
	tx.SigTag = types.Hash{}
	tx.hash.Store(nil)
	tx.sigOK.Store(false)
	return tx
}

// FinishSign completes a SignLazy by computing the signature tag. It is a
// pure function of the already-frozen fields, so it is safe to call from a
// worker goroutine as long as each transaction is finished exactly once.
//
// Unlike Sign, FinishSign marks verification as proven: the tag was
// derived from the payload by this very call, so the recomputation
// VerifySig would do is vacuously equal. Callers that mutate a
// transaction after FinishSign must re-sign it; Sign keeps the
// recompute-until-proven contract for tamper detection.
func (tx *Transaction) FinishSign() {
	tx.SigTag = tx.sigPayloadHash()
	tx.sigOK.Store(true)
}

// sigPayloadHash covers every signed field, including the sender and the
// chain id (the latter only when non-zero, mirroring EIP-155's
// backwards-compatible encoding). Encoded into a pooled buffer and hashed
// in place: zero allocations.
func (tx *Transaction) sigPayloadHash() types.Hash {
	payload := rlp.UintSize(tx.Nonce) +
		rlp.BigIntSize(tx.GasPrice) +
		rlp.UintSize(tx.GasLimit) +
		toSize(tx.To) +
		rlp.BigIntSize(tx.Value) +
		rlp.BytesSize(tx.Data) +
		1 + types.AddressLength
	if tx.ChainID != 0 {
		payload += rlp.UintSize(tx.ChainID)
	}
	bp := rlp.GetBuf()
	buf := rlp.AppendListHeader(*bp, payload)
	buf = rlp.AppendUint(buf, tx.Nonce)
	buf = rlp.AppendBigInt(buf, tx.GasPrice)
	buf = rlp.AppendUint(buf, tx.GasLimit)
	buf = appendTo(buf, tx.To)
	buf = rlp.AppendBigInt(buf, tx.Value)
	buf = rlp.AppendBytes(buf, tx.Data)
	buf = rlp.AppendBytes(buf, tx.From[:])
	if tx.ChainID != 0 {
		buf = rlp.AppendUint(buf, tx.ChainID)
	}
	h := keccak.Sum256Pooled(buf)
	*bp = buf
	rlp.PutBuf(bp)
	return types.BytesToHash(h[:])
}

// VerifySig checks the signature tag. A transaction that has verified once
// skips recomputation on later calls (both chains re-validate the same tx
// object when an echo lands); failures are never cached.
func (tx *Transaction) VerifySig() error {
	if tx.sigOK.Load() {
		return nil
	}
	if tx.SigTag != tx.sigPayloadHash() {
		return ErrBadSignature
	}
	tx.sigOK.Store(true)
	return nil
}

// Hash is the transaction identity: keccak256 of the full RLP encoding,
// memoized after the first call (see the hash field). Replayed
// transactions keep their hash across chains, which is exactly how the
// paper detects echoes.
func (tx *Transaction) Hash() types.Hash {
	if p := tx.hash.Load(); p != nil {
		return *p
	}
	bp := rlp.GetBuf()
	buf := tx.appendRLP(*bp)
	h := keccak.Sum256Pooled(buf)
	*bp = buf
	rlp.PutBuf(bp)
	hh := types.BytesToHash(h[:])
	tx.hash.Store(&hh)
	return hh
}

// EncodedSize returns the exact length of Encode's output.
func (tx *Transaction) EncodedSize() int {
	return rlp.ListSize(tx.payloadSize())
}

func (tx *Transaction) payloadSize() int {
	return rlp.UintSize(tx.Nonce) +
		rlp.BigIntSize(tx.GasPrice) +
		rlp.UintSize(tx.GasLimit) +
		toSize(tx.To) +
		rlp.BigIntSize(tx.Value) +
		rlp.BytesSize(tx.Data) +
		rlp.UintSize(tx.ChainID) +
		1 + types.AddressLength +
		1 + types.HashLength
}

// appendRLP appends the canonical encoding onto dst; identical bytes to
// the rlp.Value tree model in rlp_model_test.go, with no intermediate tree.
func (tx *Transaction) appendRLP(dst []byte) []byte {
	dst = rlp.AppendListHeader(dst, tx.payloadSize())
	dst = rlp.AppendUint(dst, tx.Nonce)
	dst = rlp.AppendBigInt(dst, tx.GasPrice)
	dst = rlp.AppendUint(dst, tx.GasLimit)
	dst = appendTo(dst, tx.To)
	dst = rlp.AppendBigInt(dst, tx.Value)
	dst = rlp.AppendBytes(dst, tx.Data)
	dst = rlp.AppendUint(dst, tx.ChainID)
	dst = rlp.AppendBytes(dst, tx.From[:])
	dst = rlp.AppendBytes(dst, tx.SigTag[:])
	return dst
}

// Encode returns the canonical RLP encoding in one exact-size allocation.
func (tx *Transaction) Encode() []byte {
	return tx.appendRLP(make([]byte, 0, tx.EncodedSize()))
}

// DecodeTx parses a transaction from its RLP encoding.
func DecodeTx(enc []byte) (*Transaction, error) {
	v, err := rlp.Decode(enc)
	if err != nil {
		return nil, fmt.Errorf("chain: bad tx encoding: %w", err)
	}
	return txFromValue(v)
}

func txFromValue(v rlp.Value) (*Transaction, error) {
	items, err := v.ListOf(9)
	if err != nil {
		return nil, fmt.Errorf("chain: bad tx structure: %w", err)
	}
	tx := &Transaction{}
	if tx.Nonce, err = items[0].AsUint(); err != nil {
		return nil, err
	}
	if tx.GasPrice, err = items[1].AsBigInt(); err != nil {
		return nil, err
	}
	if tx.GasLimit, err = items[2].AsUint(); err != nil {
		return nil, err
	}
	toBytes, err := items[3].AsBytes()
	if err != nil {
		return nil, err
	}
	switch len(toBytes) {
	case 0:
		tx.To = nil
	case types.AddressLength:
		a := types.BytesToAddress(toBytes)
		tx.To = &a
	default:
		return nil, fmt.Errorf("chain: bad recipient length %d", len(toBytes))
	}
	if tx.Value, err = items[4].AsBigInt(); err != nil {
		return nil, err
	}
	if tx.Data, err = items[5].AsBytes(); err != nil {
		return nil, err
	}
	if tx.ChainID, err = items[6].AsUint(); err != nil {
		return nil, err
	}
	fromB, err := items[7].AsBytes()
	if err != nil {
		return nil, err
	}
	if len(fromB) != types.AddressLength {
		return nil, fmt.Errorf("chain: bad sender length %d", len(fromB))
	}
	tx.From = types.BytesToAddress(fromB)
	tagB, err := fixedBytes(items[8], types.HashLength)
	if err != nil {
		return nil, err
	}
	tx.SigTag = types.BytesToHash(tagB)
	return tx, nil
}

// IsContractCreation reports whether the transaction deploys a contract.
func (tx *Transaction) IsContractCreation() bool { return tx.To == nil }

// Cost returns value + gasLimit*gasPrice, the sender's maximum outlay.
func (tx *Transaction) Cost() *big.Int {
	cost := new(big.Int).Mul(tx.GasPrice, new(big.Int).SetUint64(tx.GasLimit))
	return cost.Add(cost, tx.Value)
}

// CostInto is Cost computed into caller scratch (dst holds the result, tmp
// is clobbered), allocating nothing on the hot validation path.
func (tx *Transaction) CostInto(dst, tmp *big.Int) *big.Int {
	dst.Mul(tx.GasPrice, tmp.SetUint64(tx.GasLimit))
	return dst.Add(dst, tx.Value)
}

// IntrinsicGas is the base cost charged before execution: 21000 plus
// calldata costs (4 per zero byte, 68 per non-zero byte, Homestead).
func (tx *Transaction) IntrinsicGas() uint64 {
	gas := uint64(21_000)
	if tx.IsContractCreation() {
		gas = 53_000
	}
	for _, b := range tx.Data {
		if b == 0 {
			gas += 4
		} else {
			gas += 68
		}
	}
	return gas
}

// toSize and appendTo encode the recipient: the empty string for a
// contract creation, the 20 address bytes otherwise.
func toSize(to *types.Address) int {
	if to == nil {
		return 1
	}
	return 1 + types.AddressLength
}

func appendTo(dst []byte, to *types.Address) []byte {
	if to == nil {
		return rlp.AppendBytes(dst, nil)
	}
	return rlp.AppendBytes(dst, to[:])
}

// Receipt records the outcome of one executed transaction.
type Receipt struct {
	TxHash          types.Hash
	Status          bool
	GasUsed         uint64
	ContractAddress types.Address // set for creations
	// ContractCall records whether the transaction invoked code (used
	// by the Fig 2 bottom-panel classification).
	ContractCall bool
}

func (r *Receipt) payloadSize() int {
	return (1 + types.HashLength) +
		1 + // status: 0 or 1, single byte
		rlp.UintSize(r.GasUsed) +
		(1 + types.AddressLength) +
		1 // contract flag: 0 or 1
}

// EncodedSize returns the exact length of Encode's output.
func (r *Receipt) EncodedSize() int { return rlp.ListSize(r.payloadSize()) }

// appendRLP appends the canonical encoding onto dst; identical bytes to
// the rlp.Value tree model in rlp_model_test.go.
func (r *Receipt) appendRLP(dst []byte) []byte {
	status := uint64(0)
	if r.Status {
		status = 1
	}
	contract := uint64(0)
	if r.ContractCall {
		contract = 1
	}
	dst = rlp.AppendListHeader(dst, r.payloadSize())
	dst = rlp.AppendBytes(dst, r.TxHash[:])
	dst = rlp.AppendUint(dst, status)
	dst = rlp.AppendUint(dst, r.GasUsed)
	dst = rlp.AppendBytes(dst, r.ContractAddress[:])
	dst = rlp.AppendUint(dst, contract)
	return dst
}

// Encode returns the canonical RLP encoding of the receipt (committed to
// by the header's receipt root) in one exact-size allocation.
func (r *Receipt) Encode() []byte {
	return r.appendRLP(make([]byte, 0, r.EncodedSize()))
}
