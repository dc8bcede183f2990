// Package state implements the Ethereum-style account state database on
// top of the Merkle-Patricia trie: balances, nonces, contract code and
// contract storage, with journaled snapshots and trie commits.
//
// The fork scenario depends on three properties of this layer:
//
//   - Both chains start from the same committed pre-fork root; ETH then
//     applies the DAO irregular state change, after which the roots
//     diverge permanently (the partition of the paper's title).
//   - Replayed ("echoed") transactions succeed or fail against each
//     chain's own nonces and balances, which drives the Fig 4 dynamics.
//   - Snapshots/reverts give the EVM call semantics the DAO reentrancy
//     example needs.
package state

import (
	"bytes"
	"fmt"
	"math/big"
	"sort"

	"forkwatch/internal/db"
	"forkwatch/internal/keccak"
	"forkwatch/internal/rlp"
	"forkwatch/internal/trie"
	"forkwatch/internal/types"
)

// EmptyCodeHash is the Keccak-256 hash of empty code.
var EmptyCodeHash = types.BytesToHash(func() []byte { h := keccak.Sum256(nil); return h[:] }())

// Account is the RLP-encoded per-address record stored in the state trie:
// the quadruple of the yellow paper.
type Account struct {
	Nonce       uint64
	Balance     *big.Int
	StorageRoot types.Hash
	CodeHash    types.Hash
}

// appendTo appends the account's RLP encoding to dst — byte-identical to
// the rlp.Value tree model in state_test.go (the conformance test pins
// this), minus its allocations.
// Trie.Update copies values, so Commit encodes every account into one
// reusable scratch buffer.
func (a *Account) appendTo(dst []byte) []byte {
	const hashStr = 1 + types.HashLength // header byte + 32-byte payload
	payload := rlp.UintSize(a.Nonce) + rlp.BigIntSize(a.Balance) + 2*hashStr
	dst = rlp.AppendListHeader(dst, payload)
	dst = rlp.AppendUint(dst, a.Nonce)
	dst = rlp.AppendBigInt(dst, a.Balance)
	dst = rlp.AppendBytes(dst, a.StorageRoot[:])
	return rlp.AppendBytes(dst, a.CodeHash[:])
}

// appendSlot appends a non-zero storage value's trie encoding: the RLP
// string of its bytes with leading zeroes trimmed, as Ethereum stores it.
func appendSlot(dst []byte, v types.Hash) []byte {
	return rlp.AppendBytes(dst, bytes.TrimLeft(v[:], "\x00"))
}

func decodeAccount(enc []byte) (*Account, error) {
	v, err := rlp.Decode(enc)
	if err != nil {
		return nil, fmt.Errorf("state: corrupt account: %w", err)
	}
	items, err := v.ListOf(4)
	if err != nil {
		return nil, fmt.Errorf("state: corrupt account: %w", err)
	}
	nonce, err := items[0].AsUint()
	if err != nil {
		return nil, err
	}
	bal, err := items[1].AsBigInt()
	if err != nil {
		return nil, err
	}
	rootB, err := items[2].AsBytes()
	if err != nil {
		return nil, err
	}
	codeB, err := items[3].AsBytes()
	if err != nil {
		return nil, err
	}
	return &Account{
		Nonce:       nonce,
		Balance:     bal,
		StorageRoot: types.BytesToHash(rootB),
		CodeHash:    types.BytesToHash(codeB),
	}, nil
}

// stateObject is the in-memory working copy of one account.
type stateObject struct {
	addr types.Address
	// key is the account's secure-trie key, keccak256(addr): hashed once
	// when the object is loaded and used again by Commit.
	key     types.Hash
	account Account
	code    []byte
	// storage caches loaded slots; dirtyStorage the pending writes.
	storage      map[types.Hash]types.Hash
	dirtyStorage map[types.Hash]types.Hash
	deleted      bool
	exists       bool // account existed in trie or was created
}

// DB is a mutable account state over a db.KV node store. It is not safe
// for concurrent use; each chain (and each EVM execution) owns its own DB.
type DB struct {
	db      db.KV
	tr      *trie.Trie
	objects map[types.Address]*stateObject
	// code store: code is content-addressed and shared across copies.
	codes   map[types.Hash][]byte
	journal []journalEntry
	// dbErr records the first storage fault hit by a getter. The getter
	// surface (GetBalance, GetState, ...) is called from EVM execution and
	// cannot return errors, so faults are recorded here and surfaced by
	// Commit — the transition that observed broken reads never persists.
	dbErr error
	// encBuf is Commit's reusable account-encoding scratch (Trie.Update
	// copies the value, so one buffer serves every account in a commit).
	encBuf []byte
}

// setError records the first storage fault observed by a getter.
func (s *DB) setError(err error) {
	if s.dbErr == nil {
		s.dbErr = err
	}
}

// Error returns the first storage fault recorded by a getter, if any.
func (s *DB) Error() error { return s.dbErr }

// journalEntry undoes one state mutation on revert.
type journalEntry func()

// New opens the state at the given root. The zero hash opens empty state.
func New(root types.Hash, kv db.KV) (*DB, error) {
	tr, err := trie.New(root, kv)
	if err != nil {
		return nil, err
	}
	return &DB{
		db:      kv,
		tr:      tr,
		objects: make(map[types.Address]*stateObject),
		codes:   make(map[types.Hash][]byte),
	}, nil
}

// NewEmpty returns empty state over a fresh in-memory database.
func NewEmpty() *DB {
	s, err := New(types.Hash{}, db.NewMemDB())
	if err != nil {
		panic(err) // empty root over MemDB cannot fail
	}
	return s
}

func (s *DB) getObject(addr types.Address) *stateObject {
	if obj, ok := s.objects[addr]; ok {
		if obj.deleted || !obj.exists {
			return nil
		}
		return obj
	}
	key := addrKey(addr)
	enc, err := s.tr.Get(key[:])
	if err != nil {
		// Record the fault and report the account absent; Commit will
		// refuse to persist a transition built on this read.
		s.setError(fmt.Errorf("state: reading account %s: %w", addr, err))
		return nil
	}
	if len(enc) == 0 {
		obj := newObject(addr, key)
		obj.exists = false
		s.objects[addr] = obj
		return nil
	}
	acct, err := decodeAccount(enc)
	if err != nil {
		s.setError(fmt.Errorf("%w: account %s: %v", db.ErrCorrupt, addr, err))
		return nil
	}
	obj := newObject(addr, key)
	obj.account = *acct
	obj.exists = true
	s.objects[addr] = obj
	return obj
}

func newObject(addr types.Address, key types.Hash) *stateObject {
	return &stateObject{
		addr:         addr,
		key:          key,
		account:      Account{Balance: new(big.Int), StorageRoot: trie.EmptyRoot, CodeHash: EmptyCodeHash},
		storage:      make(map[types.Hash]types.Hash),
		dirtyStorage: make(map[types.Hash]types.Hash),
	}
}

// getOrCreate returns the object for addr, creating a fresh account if
// absent (journaled).
func (s *DB) getOrCreate(addr types.Address) *stateObject {
	if obj := s.getObject(addr); obj != nil {
		return obj
	}
	obj, ok := s.objects[addr]
	if !ok || obj.deleted {
		obj = newObject(addr, addrKey(addr))
		s.objects[addr] = obj
	}
	wasDeleted, wasExists := obj.deleted, obj.exists
	obj.deleted, obj.exists = false, true
	s.journal = append(s.journal, func() { obj.deleted, obj.exists = wasDeleted, wasExists })
	return obj
}

// GetBalance returns addr's balance (zero for absent accounts).
func (s *DB) GetBalance(addr types.Address) *big.Int {
	if obj := s.getObject(addr); obj != nil {
		return types.BigCopy(obj.account.Balance)
	}
	return new(big.Int)
}

// BalanceCmp compares addr's balance to x without copying it — the
// allocation-free form of GetBalance(addr).Cmp(x) for hot validation.
func (s *DB) BalanceCmp(addr types.Address, x *big.Int) int {
	if obj := s.getObject(addr); obj != nil {
		return obj.account.Balance.Cmp(x)
	}
	if x.Sign() > 0 {
		return -1
	}
	if x.Sign() < 0 {
		return 1
	}
	return 0
}

// AddBalance credits amount to addr, creating the account if needed.
func (s *DB) AddBalance(addr types.Address, amount *big.Int) {
	if amount.Sign() < 0 {
		panic("state: AddBalance with negative amount")
	}
	obj := s.getOrCreate(addr)
	prev := types.BigCopy(obj.account.Balance)
	s.journal = append(s.journal, func() { obj.account.Balance = prev })
	obj.account.Balance = new(big.Int).Add(obj.account.Balance, amount)
}

// SubBalance debits amount from addr. The caller must have checked funds;
// driving the balance negative panics.
func (s *DB) SubBalance(addr types.Address, amount *big.Int) {
	if amount.Sign() < 0 {
		panic("state: SubBalance with negative amount")
	}
	obj := s.getOrCreate(addr)
	if obj.account.Balance.Cmp(amount) < 0 {
		panic(fmt.Sprintf("state: balance underflow for %s", addr))
	}
	prev := types.BigCopy(obj.account.Balance)
	s.journal = append(s.journal, func() { obj.account.Balance = prev })
	obj.account.Balance = new(big.Int).Sub(obj.account.Balance, amount)
}

// SetBalance forces addr's balance to amount. Used by the DAO irregular
// state change and by genesis allocation.
func (s *DB) SetBalance(addr types.Address, amount *big.Int) {
	obj := s.getOrCreate(addr)
	prev := types.BigCopy(obj.account.Balance)
	s.journal = append(s.journal, func() { obj.account.Balance = prev })
	obj.account.Balance = types.BigCopy(amount)
}

// GetNonce returns addr's nonce.
func (s *DB) GetNonce(addr types.Address) uint64 {
	if obj := s.getObject(addr); obj != nil {
		return obj.account.Nonce
	}
	return 0
}

// SetNonce sets addr's nonce.
func (s *DB) SetNonce(addr types.Address, nonce uint64) {
	obj := s.getOrCreate(addr)
	prev := obj.account.Nonce
	s.journal = append(s.journal, func() { obj.account.Nonce = prev })
	obj.account.Nonce = nonce
}

// GetCode returns the contract code at addr (nil for plain accounts).
func (s *DB) GetCode(addr types.Address) []byte {
	obj := s.getObject(addr)
	if obj == nil || obj.account.CodeHash == EmptyCodeHash {
		return nil
	}
	if obj.code != nil {
		return obj.code
	}
	if code, ok := s.codes[obj.account.CodeHash]; ok {
		obj.code = code
		return code
	}
	// Code lives in the node store, content-addressed.
	enc, ok, err := s.db.Get(obj.account.CodeHash.Bytes())
	if err != nil {
		s.setError(fmt.Errorf("state: reading code %s: %w", obj.account.CodeHash, err))
		return nil
	}
	if ok {
		obj.code = enc
		s.codes[obj.account.CodeHash] = enc
		return enc
	}
	return nil
}

// SetCode installs contract code at addr.
func (s *DB) SetCode(addr types.Address, code []byte) {
	obj := s.getOrCreate(addr)
	prevHash, prevCode := obj.account.CodeHash, obj.code
	s.journal = append(s.journal, func() { obj.account.CodeHash, obj.code = prevHash, prevCode })
	h := keccak.Sum256(code)
	obj.account.CodeHash = types.BytesToHash(h[:])
	obj.code = append([]byte(nil), code...)
	s.codes[obj.account.CodeHash] = obj.code
}

// GetState returns the storage slot `key` of contract addr.
func (s *DB) GetState(addr types.Address, key types.Hash) types.Hash {
	obj := s.getObject(addr)
	if obj == nil {
		return types.Hash{}
	}
	if v, ok := obj.dirtyStorage[key]; ok {
		return v
	}
	if v, ok := obj.storage[key]; ok {
		return v
	}
	v := s.loadSlot(obj, key)
	obj.storage[key] = v
	return v
}

func (s *DB) loadSlot(obj *stateObject, key types.Hash) types.Hash {
	if obj.account.StorageRoot == trie.EmptyRoot {
		return types.Hash{}
	}
	st, err := trie.New(obj.account.StorageRoot, s.db)
	if err != nil {
		s.setError(fmt.Errorf("state: opening storage of %s: %w", obj.addr, err))
		return types.Hash{}
	}
	enc, err := st.Get(slotKey(key))
	if err != nil {
		s.setError(fmt.Errorf("state: reading slot %s of %s: %w", key, obj.addr, err))
		return types.Hash{}
	}
	if len(enc) == 0 {
		return types.Hash{}
	}
	v, err := rlp.Decode(enc)
	if err != nil {
		s.setError(fmt.Errorf("%w: slot %s of %s: %v", db.ErrCorrupt, key, obj.addr, err))
		return types.Hash{}
	}
	b, err := v.AsBytes()
	if err != nil {
		s.setError(fmt.Errorf("%w: slot %s of %s: %v", db.ErrCorrupt, key, obj.addr, err))
		return types.Hash{}
	}
	return types.BytesToHash(b)
}

// SetState writes storage slot `key` of contract addr (journaled).
func (s *DB) SetState(addr types.Address, key, value types.Hash) {
	obj := s.getOrCreate(addr)
	prev, hadPrev := obj.dirtyStorage[key]
	s.journal = append(s.journal, func() {
		if hadPrev {
			obj.dirtyStorage[key] = prev
		} else {
			delete(obj.dirtyStorage, key)
		}
	})
	obj.dirtyStorage[key] = value
}

// Snapshot returns an identifier for the current state to revert to.
func (s *DB) Snapshot() int { return len(s.journal) }

// RevertToSnapshot undoes every mutation made after the snapshot was
// taken.
func (s *DB) RevertToSnapshot(id int) {
	if id < 0 || id > len(s.journal) {
		panic(fmt.Sprintf("state: invalid snapshot id %d (journal %d)", id, len(s.journal)))
	}
	for i := len(s.journal) - 1; i >= id; i-- {
		s.journal[i]()
	}
	s.journal = s.journal[:id]
}

// Commit flushes all dirty objects into the tries, stores code and returns
// the new state root: CommitTo into a batch of the DB's own store, written
// at once, so the store sees a block's state transition atomically
// (nothing is persisted if an intermediate step errors).
func (s *DB) Commit() (types.Hash, error) {
	batch := s.db.NewBatch()
	root, err := s.CommitTo(batch)
	if err != nil {
		return types.Hash{}, err
	}
	if err := batch.Write(); err != nil {
		return types.Hash{}, fmt.Errorf("state: committing: %w", err)
	}
	return root, nil
}

// CommitTo is Commit into the caller's batch, the state-level twin of
// trie.CommitTo: every storage trie, contract code blob and the account
// trie itself are queued into batch, in a fixed order, and the new root is
// returned. Nothing is persisted until the caller writes batch, which lets
// the chain land a block's state and its records as one write.
//
// A successful CommitTo leaves the DB ready for the next transition: the
// working objects and the journal are dropped, the committed account trie
// stays resident and so does the code read or installed so far. The DB
// then believes in nodes only batch holds: if the batch is never written,
// or its write fails, the DB must be dropped — as must one whose CommitTo
// failed, which is in no defined state.
//
// A storage fault observed by any getter since the last commit (see
// setError) also fails the commit: a transition computed over broken reads
// must never persist.
func (s *DB) CommitTo(batch db.Batch) (types.Hash, error) {
	if s.dbErr != nil {
		return types.Hash{}, s.dbErr
	}
	// Deterministic iteration keeps commits reproducible.
	addrs := make([]types.Address, 0, len(s.objects))
	for a := range s.objects {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool {
		return string(addrs[i].Bytes()) < string(addrs[j].Bytes())
	})
	for _, addr := range addrs {
		obj := s.objects[addr]
		if obj.deleted || !obj.exists {
			if obj.deleted {
				if err := s.tr.Delete(obj.key[:]); err != nil {
					return types.Hash{}, err
				}
			}
			continue
		}
		if err := s.commitStorage(obj, batch); err != nil {
			return types.Hash{}, err
		}
		if obj.account.CodeHash != EmptyCodeHash && obj.code != nil {
			batch.Put(obj.account.CodeHash.Bytes(), obj.code)
		}
		s.encBuf = obj.account.appendTo(s.encBuf[:0])
		if err := s.tr.Update(obj.key[:], s.encBuf); err != nil {
			return types.Hash{}, err
		}
	}
	if s.dbErr != nil {
		// A getter tripped during the flush (storage-trie reads above).
		return types.Hash{}, s.dbErr
	}
	root := s.tr.CommitTo(batch)
	s.journal = nil
	clear(s.objects)
	return root, nil
}

func (s *DB) commitStorage(obj *stateObject, batch db.Batch) error {
	if len(obj.dirtyStorage) == 0 {
		return nil
	}
	st, err := trie.New(obj.account.StorageRoot, s.db)
	if err != nil {
		return err
	}
	keys := make([]types.Hash, 0, len(obj.dirtyStorage))
	for k := range obj.dirtyStorage {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return string(keys[i].Bytes()) < string(keys[j].Bytes())
	})
	for _, k := range keys {
		v := obj.dirtyStorage[k]
		obj.storage[k] = v
		if v.IsZero() {
			if err := st.Delete(slotKey(k)); err != nil {
				return err
			}
			continue
		}
		var enc [1 + types.HashLength]byte
		if err := st.Update(slotKey(k), appendSlot(enc[:0], v)); err != nil {
			return err
		}
	}
	obj.dirtyStorage = make(map[types.Hash]types.Hash)
	obj.account.StorageRoot = st.CommitTo(batch)
	return nil
}

// Copy returns an independent state sharing the same backing database.
// Used at the fork block to hand each chain its own state head. Copying
// commits first, so it can fail on a storage fault.
func (s *DB) Copy() (*DB, error) {
	root, err := s.Commit()
	if err != nil {
		return nil, err
	}
	cp, err := New(root, s.db)
	if err != nil {
		return nil, err
	}
	for h, c := range s.codes {
		cp.codes[h] = c
	}
	return cp, nil
}

// addrKey is the secure-trie key for an address: keccak256(addr).
func addrKey(addr types.Address) types.Hash {
	return keccak.Sum256(addr.Bytes())
}

// slotKey is the secure-trie key for a storage slot: keccak256(slot).
func slotKey(key types.Hash) []byte {
	h := keccak.Sum256(key.Bytes())
	return h[:]
}
