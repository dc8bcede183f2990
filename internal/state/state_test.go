package state

import (
	"bytes"
	"math/big"
	"math/rand"
	"testing"

	"forkwatch/internal/db"
	"forkwatch/internal/rlp"
	"forkwatch/internal/types"
)

func addr(b byte) types.Address { return types.BytesToAddress([]byte{b}) }

func TestBalanceLifecycle(t *testing.T) {
	s := NewEmpty()
	a := addr(1)
	if s.getObject(a) != nil {
		t.Error("fresh state should have no accounts")
	}
	if s.GetBalance(a).Sign() != 0 {
		t.Error("absent account balance should be zero")
	}
	s.AddBalance(a, big.NewInt(100))
	if s.getObject(a) == nil {
		t.Error("AddBalance should create the account")
	}
	s.SubBalance(a, big.NewInt(30))
	if got := s.GetBalance(a); got.Int64() != 70 {
		t.Errorf("balance = %v, want 70", got)
	}
	// Returned balance must be a copy.
	s.GetBalance(a).SetInt64(999)
	if got := s.GetBalance(a); got.Int64() != 70 {
		t.Errorf("balance aliased: %v", got)
	}
}

func TestSubBalanceUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on balance underflow")
		}
	}()
	s := NewEmpty()
	s.SubBalance(addr(1), big.NewInt(1))
}

func TestNonce(t *testing.T) {
	s := NewEmpty()
	a := addr(2)
	if s.GetNonce(a) != 0 {
		t.Error("fresh nonce should be 0")
	}
	s.SetNonce(a, 5)
	if s.GetNonce(a) != 5 {
		t.Error("nonce not persisted")
	}
}

func TestCode(t *testing.T) {
	s := NewEmpty()
	a := addr(3)
	if s.GetCode(a) != nil {
		t.Error("absent account should have nil code")
	}
	if s.getObject(a) != nil {
		t.Error("absent account should have no object, so EmptyCodeHash")
	}
	code := []byte{0x60, 0x00, 0x60, 0x00}
	s.SetCode(a, code)
	if got := s.GetCode(a); string(got) != string(code) {
		t.Errorf("code = %x", got)
	}
	if s.getObject(a).account.CodeHash == EmptyCodeHash {
		t.Error("code hash should change after SetCode")
	}
}

func TestStorage(t *testing.T) {
	s := NewEmpty()
	a := addr(4)
	k := types.HexToHash("0x01")
	v := types.HexToHash("0xdeadbeef")
	if !s.GetState(a, k).IsZero() {
		t.Error("unset slot should be zero")
	}
	s.SetState(a, k, v)
	if s.GetState(a, k) != v {
		t.Error("slot not set")
	}
	s.SetState(a, k, types.Hash{}) // clear
	if !s.GetState(a, k).IsZero() {
		t.Error("cleared slot should be zero")
	}
}

func TestSnapshotRevert(t *testing.T) {
	s := NewEmpty()
	a, b := addr(5), addr(6)
	s.AddBalance(a, big.NewInt(100))
	snap := s.Snapshot()

	s.SubBalance(a, big.NewInt(40))
	s.AddBalance(b, big.NewInt(40))
	s.SetNonce(a, 1)
	s.SetState(a, types.HexToHash("0x01"), types.HexToHash("0x02"))
	s.SetCode(b, []byte{1, 2, 3})

	s.RevertToSnapshot(snap)

	if got := s.GetBalance(a); got.Int64() != 100 {
		t.Errorf("a balance after revert = %v, want 100", got)
	}
	if got := s.GetBalance(b); got.Sign() != 0 {
		t.Errorf("b balance after revert = %v, want 0", got)
	}
	if s.GetNonce(a) != 0 {
		t.Error("nonce not reverted")
	}
	if !s.GetState(a, types.HexToHash("0x01")).IsZero() {
		t.Error("storage not reverted")
	}
	if s.GetCode(b) != nil {
		t.Error("code not reverted")
	}
	if s.getObject(b) != nil {
		t.Error("account creation not reverted")
	}
}

func TestNestedSnapshots(t *testing.T) {
	s := NewEmpty()
	a := addr(7)
	s.AddBalance(a, big.NewInt(10))
	outer := s.Snapshot()
	s.AddBalance(a, big.NewInt(10))
	inner := s.Snapshot()
	s.AddBalance(a, big.NewInt(10))
	s.RevertToSnapshot(inner)
	if got := s.GetBalance(a); got.Int64() != 20 {
		t.Errorf("after inner revert = %v, want 20", got)
	}
	s.RevertToSnapshot(outer)
	if got := s.GetBalance(a); got.Int64() != 10 {
		t.Errorf("after outer revert = %v, want 10", got)
	}
}

func TestCommitAndReopen(t *testing.T) {
	store := db.NewMemDB()
	s, err := New(types.Hash{}, store)
	if err != nil {
		t.Fatal(err)
	}
	a := addr(8)
	s.AddBalance(a, big.NewInt(12345))
	s.SetNonce(a, 7)
	s.SetCode(a, []byte{0xfe, 0xed})
	s.SetState(a, types.HexToHash("0x11"), types.HexToHash("0x22"))
	root, err := s.Commit()
	if err != nil {
		t.Fatal(err)
	}

	re, err := New(root, store)
	if err != nil {
		t.Fatal(err)
	}
	if got := re.GetBalance(a); got.Int64() != 12345 {
		t.Errorf("balance after reopen = %v", got)
	}
	if re.GetNonce(a) != 7 {
		t.Error("nonce lost across commit")
	}
	if got := re.GetCode(a); string(got) != "\xfe\xed" {
		t.Errorf("code lost across commit: %x", got)
	}
	if re.GetState(a, types.HexToHash("0x11")) != types.HexToHash("0x22") {
		t.Error("storage lost across commit")
	}
}

func TestCommitDeterministicRoot(t *testing.T) {
	build := func(seed int64) types.Hash {
		s := NewEmpty()
		r := rand.New(rand.NewSource(seed))
		order := r.Perm(50)
		for _, i := range order {
			a := addr(byte(i + 1))
			s.AddBalance(a, big.NewInt(int64(i*1000+1)))
			s.SetNonce(a, uint64(i))
		}
		root, err := s.Commit()
		if err != nil {
			t.Fatal(err)
		}
		return root
	}
	if build(1) != build(99) {
		t.Error("commit root depends on mutation order of distinct accounts")
	}
}

// TestForkDivergence models the DAO fork: copy the state, apply the
// irregular state change on one side only, and check the roots diverge
// while the untouched side matches the original.
func TestForkDivergence(t *testing.T) {
	shared := NewEmpty()
	dao := addr(0xda)
	attacker := addr(0xa7)
	shared.AddBalance(dao, big.NewInt(1_000_000))
	shared.AddBalance(attacker, big.NewInt(50))
	preForkRoot, err := shared.Commit()
	if err != nil {
		t.Fatal(err)
	}

	eth, err := shared.Copy()
	if err != nil {
		t.Fatal(err)
	}
	etc, err := shared.Copy()
	if err != nil {
		t.Fatal(err)
	}

	// ETH side: move the DAO balance to a refund address.
	refund := addr(0x99)
	drained := eth.GetBalance(dao)
	eth.SubBalance(dao, drained)
	eth.AddBalance(refund, drained)
	ethRoot, err := eth.Commit()
	if err != nil {
		t.Fatal(err)
	}
	etcRoot, err := etc.Commit()
	if err != nil {
		t.Fatal(err)
	}

	if ethRoot == etcRoot {
		t.Error("fork should diverge the roots")
	}
	if etcRoot != preForkRoot {
		t.Error("untouched chain root should match pre-fork root")
	}
	if eth.GetBalance(refund).Int64() != 1_000_000 {
		t.Error("irregular state change lost funds")
	}
	if etc.GetBalance(dao).Int64() != 1_000_000 {
		t.Error("ETC should keep the original DAO balance")
	}
}

func TestCopyIsolation(t *testing.T) {
	s := NewEmpty()
	a := addr(9)
	s.AddBalance(a, big.NewInt(100))
	cp, err := s.Copy()
	if err != nil {
		t.Fatal(err)
	}
	cp.AddBalance(a, big.NewInt(900))
	if got := s.GetBalance(a); got.Int64() != 100 {
		t.Errorf("copy mutated original: %v", got)
	}
	if got := cp.GetBalance(a); got.Int64() != 1000 {
		t.Errorf("copy balance = %v, want 1000", got)
	}
}

func TestRevertInvalidSnapshotPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for invalid snapshot id")
		}
	}()
	NewEmpty().RevertToSnapshot(5)
}

func BenchmarkCommit100Accounts(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewEmpty()
		for j := 0; j < 100; j++ {
			s.AddBalance(addr(byte(j)), big.NewInt(int64(j+1)))
		}
		if _, err := s.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAccountAppendToMatchesEncode pins the scratch-buffer account encoder
// to the rlp.Value model across the value shapes that change the encoding:
// zero/small/large nonces and balances, empty and set roots/code hashes.
func TestAccountAppendToMatchesEncode(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	cases := []Account{
		{Balance: new(big.Int)},
		{Nonce: 1, Balance: big.NewInt(1)},
		{Nonce: 127, Balance: big.NewInt(127)},
		{Nonce: 128, Balance: big.NewInt(128)},
		{Nonce: ^uint64(0), Balance: new(big.Int).Lsh(big.NewInt(1), 255)},
	}
	for i := 0; i < 200; i++ {
		a := Account{
			Nonce:   r.Uint64() >> uint(r.Intn(64)),
			Balance: new(big.Int).Rand(r, new(big.Int).Lsh(big.NewInt(1), uint(1+r.Intn(256)))),
		}
		r.Read(a.StorageRoot[:])
		r.Read(a.CodeHash[:])
		cases = append(cases, a)
	}
	scratch := make([]byte, 0, 128)
	for i, a := range cases {
		want := a.encode()
		got := a.appendTo(scratch[:0])
		if !bytes.Equal(got, want) {
			t.Fatalf("case %d: appendTo = %x, encode = %x", i, got, want)
		}
		dec, err := decodeAccount(got)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if dec.Nonce != a.Nonce || dec.Balance.Cmp(a.Balance) != 0 ||
			dec.StorageRoot != a.StorageRoot || dec.CodeHash != a.CodeHash {
			t.Fatalf("case %d: round-trip mismatch: %+v vs %+v", i, dec, a)
		}
	}
}

// TestSlotEncodingMatchesModel pins the storage value encoder to the tree
// model it replaced (the value's minimal big-endian bytes as one RLP
// string): single bytes below and above 0x80, leading zeroes, full words.
func TestSlotEncodingMatchesModel(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	cases := []types.Hash{
		types.BytesToHash([]byte{1}), types.BytesToHash([]byte{0x7f}),
		types.BytesToHash([]byte{0x80}), types.BytesToHash([]byte{1, 0}),
	}
	for i := 0; i < 300; i++ {
		var v types.Hash
		r.Read(v[r.Intn(types.HashLength):])
		if !v.IsZero() {
			cases = append(cases, v)
		}
	}
	for i, v := range cases {
		want := rlp.Encode(rlp.Bytes(new(big.Int).SetBytes(v.Bytes()).Bytes()))
		if got := appendSlot(nil, v); !bytes.Equal(got, want) {
			t.Fatalf("case %d (%s): appendSlot = %x, model %x", i, v, got, want)
		}
	}
}

// encode is the account's rlp.Value tree model: the reference appendTo
// is held equal to by the conformance test above.
func (a *Account) encode() []byte {
	return rlp.EncodeList(
		rlp.Uint(a.Nonce),
		rlp.BigInt(a.Balance),
		rlp.Bytes(a.StorageRoot.Bytes()),
		rlp.Bytes(a.CodeHash.Bytes()),
	)
}
