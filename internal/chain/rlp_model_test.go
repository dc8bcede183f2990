package chain

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/big"
	"math/rand"
	"testing"

	"forkwatch/internal/keccak"
	"forkwatch/internal/rlp"
	"forkwatch/internal/types"
)

// The rlp.Value tree encoders below are the reference the append-style
// production encoders (appendRLP, appendSealFields, CalcUncleHash,
// encodeWALRecord) are held equal to: one rlp constructor per field, in wire order, easy to
// audit against the yellow paper. They build a tree per call, which is
// why production does not use them.

// RLP is the transaction's tree model.
func (tx *Transaction) RLP() rlp.Value {
	return rlp.List(
		rlp.Uint(tx.Nonce),
		rlp.BigInt(tx.GasPrice),
		rlp.Uint(tx.GasLimit),
		toValue(tx.To),
		rlp.BigInt(tx.Value),
		rlp.Bytes(tx.Data),
		rlp.Uint(tx.ChainID),
		rlp.Bytes(tx.From.Bytes()),
		rlp.Bytes(tx.SigTag.Bytes()),
	)
}

// RLP is the receipt's tree model.
func (r *Receipt) RLP() rlp.Value {
	status := uint64(0)
	if r.Status {
		status = 1
	}
	contract := uint64(0)
	if r.ContractCall {
		contract = 1
	}
	return rlp.List(
		rlp.Bytes(r.TxHash.Bytes()),
		rlp.Uint(status),
		rlp.Uint(r.GasUsed),
		rlp.Bytes(r.ContractAddress.Bytes()),
		rlp.Uint(contract),
	)
}

// sealFields is the field list the PoW seal commits to: every header
// field except the seal itself (Nonce, MixDigest).
func (h *Header) sealFields() []rlp.Value {
	return []rlp.Value{
		rlp.Bytes(h.ParentHash.Bytes()),
		rlp.Uint(h.Number),
		rlp.Uint(h.Time),
		rlp.BigInt(h.Difficulty),
		rlp.Uint(h.GasLimit),
		rlp.Uint(h.GasUsed),
		rlp.Bytes(h.Coinbase.Bytes()),
		rlp.Bytes(h.StateRoot.Bytes()),
		rlp.Bytes(h.TxRoot.Bytes()),
		rlp.Bytes(h.ReceiptRoot.Bytes()),
		rlp.Bytes(h.Extra),
		rlp.Bytes(h.UncleHash.Bytes()),
	}
}

// RLP is the header's tree model.
func (h *Header) RLP() rlp.Value {
	return rlp.List(append(h.sealFields(), rlp.Uint(h.Nonce), rlp.Bytes(h.MixDigest.Bytes()))...)
}

func toValue(to *types.Address) rlp.Value {
	if to == nil {
		return rlp.Bytes(nil)
	}
	return rlp.Bytes(to.Bytes())
}

// walRecordModel is the WAL record's tree model: crc32(payload) || payload
// with payload = rlp([seq, [[key, value, del], ...]]).
func walRecordModel(seq uint64, ops []walOp) []byte {
	items := make([]rlp.Value, len(ops))
	for i, op := range ops {
		items[i] = rlp.List(rlp.Bytes(op.Key), rlp.Bytes(op.Value), rlp.Bool(op.Del))
	}
	payload := rlp.EncodeList(rlp.Uint(seq), rlp.List(items...))
	return append(binary.BigEndian.AppendUint32(nil, crc32.ChecksumIEEE(payload)), payload...)
}

// TestOnDiskEncodersMatchTreeModel: the encoders whose bytes reach the
// store — the WAL record, a storage slot (state's own test) and the empty
// uncle hash every header carries — equal the tree model; one byte of
// difference would change every archive byte count bench/ pins.
func TestOnDiskEncodersMatchTreeModel(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	randBytes := func(max int) []byte {
		b := make([]byte, r.Intn(max+1))
		r.Read(b)
		return b
	}
	// Op counts: none, one, a block's worth, and a whole run's records
	// (past the 3-byte list length).
	for i, n := range []int{0, 1, 2, 17, 40, MaxRun * 12} {
		ops := make([]walOp, n)
		for j := range ops {
			ops[j] = walOp{Key: randBytes(70), Value: randBytes(90), Del: r.Intn(3) == 0}
			switch r.Intn(4) {
			case 0:
				ops[j].Value = nil
			case 1:
				ops[j].Value = []byte{byte(r.Intn(0x100))}
			}
		}
		seq := r.Uint64() >> uint(r.Intn(64))
		got, want := encodeWALRecord(seq, ops), walRecordModel(seq, ops)
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d (%d ops): append form differs from the tree model", i, n)
		}
		gotSeq, gotOps, err := decodeWALRecord(got)
		if err != nil || gotSeq != seq || len(gotOps) != n {
			t.Fatalf("record %d: decoded seq %d, %d ops, %v", i, gotSeq, len(gotOps), err)
		}
	}
	if want := keccak.Sum256([]byte{0xc0}); EmptyUncleHash != types.BytesToHash(want[:]) {
		t.Fatalf("EmptyUncleHash = %s, want keccak(0xc0) %x", EmptyUncleHash, want)
	}
	if want := keccak.Sum256(rlp.Encode(rlp.List())); EmptyUncleHash != types.BytesToHash(want[:]) {
		t.Fatal("EmptyUncleHash differs from the tree model's empty list")
	}
}

// TestAppendEncodersMatchTreeModel: for values spanning every RLP length
// class of every field, the append encoders produce exactly the model's
// bytes, EncodedSize predicts their length, and the two derived hashes
// (seal hash, uncle hash) are the keccak of the model's encoding.
func TestAppendEncodersMatchTreeModel(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	randUint := func() uint64 { return r.Uint64() >> uint(r.Intn(64)) }
	randBig := func() *big.Int {
		return new(big.Int).Rand(r, new(big.Int).Lsh(big.NewInt(1), uint(1+r.Intn(256))))
	}
	randBytes := func(max int) []byte {
		b := make([]byte, r.Intn(max+1))
		r.Read(b)
		return b
	}
	check := func(what string, i int, got []byte, size int, model rlp.Value) {
		t.Helper()
		want := rlp.Encode(model)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s %d: append form %x, tree model %x", what, i, got, want)
		}
		if size != len(want) {
			t.Fatalf("%s %d: EncodedSize = %d, encoding is %d bytes", what, i, size, len(want))
		}
	}
	var headers []*Header
	for i := 0; i < 300; i++ {
		tx := &Transaction{
			Nonce: randUint(), GasPrice: randBig(), GasLimit: randUint(),
			Value: randBig(), Data: randBytes(80), ChainID: randUint(),
		}
		if i%3 != 0 {
			to := types.Address{}
			r.Read(to[:])
			tx.To = &to
		}
		r.Read(tx.From[:])
		r.Read(tx.SigTag[:])
		check("tx", i, tx.Encode(), tx.EncodedSize(), tx.RLP())

		rec := &Receipt{Status: i%2 == 0, GasUsed: randUint(), ContractCall: i%5 == 0}
		r.Read(rec.TxHash[:])
		r.Read(rec.ContractAddress[:])
		check("receipt", i, rec.Encode(), rec.EncodedSize(), rec.RLP())

		h := &Header{
			Number: randUint(), Time: randUint(), Difficulty: randBig(),
			GasLimit: randUint(), GasUsed: randUint(), Extra: randBytes(40), Nonce: randUint(),
		}
		for _, f := range []*types.Hash{&h.ParentHash, &h.StateRoot, &h.TxRoot, &h.ReceiptRoot, &h.UncleHash, &h.MixDigest} {
			r.Read(f[:])
		}
		r.Read(h.Coinbase[:])
		check("header", i, h.Encode(), h.EncodedSize(), h.RLP())
		if seal := keccak.Sum256(rlp.Encode(rlp.List(h.sealFields()...))); h.SealHash() != types.BytesToHash(seal[:]) {
			t.Fatalf("header %d: SealHash diverges from the model's seal fields", i)
		}
		headers = append(headers, h)
	}
	for n := 0; n <= 3; n++ {
		items := make([]rlp.Value, n)
		for i, u := range headers[:n] {
			items[i] = u.RLP()
		}
		want := keccak.Sum256(rlp.Encode(rlp.List(items...)))
		if got := CalcUncleHash(headers[:n]); got != types.BytesToHash(want[:]) {
			t.Fatalf("CalcUncleHash of %d uncles = %s, model %x", n, got, want)
		}
	}
}
