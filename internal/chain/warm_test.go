package chain

import (
	"bytes"
	"errors"
	"fmt"
	"math/big"
	"sync"
	"testing"

	"forkwatch/internal/db"
	"forkwatch/internal/types"
)

// The chain carries the head's committed state into the head's child
// (takeState, keepState). Whether it does must be invisible to the store:
// these tests run one script of blocks twice — once as is, once with the
// carried state taken away before every block — and compare every write,
// in order.

var (
	pool2     = types.HexToAddress("0x9002")
	ghost     = types.HexToAddress("0x6057") // never funded
	newcomer  = types.HexToAddress("0x2e3c")
	slotStore = types.HexToAddress("0x5107")
	// slotStoreCode stores calldata word 1 into the slot named by word 0.
	slotStoreCode = []byte{
		0x60, 0x20, 0x35, // PUSH1 32 CALLDATALOAD
		0x60, 0x00, 0x35, // PUSH1 0 CALLDATALOAD
		0x55, 0x00, // SSTORE STOP
	}
)

func setSlot(nonce uint64, from types.Address, slot, value byte) *Transaction {
	data := make([]byte, 64)
	data[31], data[63] = slot, value
	return NewTransaction(nonce, &slotStore, nil, 100_000, big.NewInt(1), data).Sign(from, 0)
}

// warmScript drives one chain through every way a block reaches it.
type warmScript struct {
	t     *testing.T
	carry bool
	bc    *Blockchain
	log   putLog
	users []types.Address
	nonce map[types.Address]uint64
}

// putLog records every write that reaches a store, in order.
type putLog []string

func (l *putLog) add(key, value []byte, del bool) {
	*l = append(*l, fmt.Sprintf("%x=%x del=%v", key, value, del))
}

// loggedKV is a store that records its writes in log: a batch's
// operations in queue order once it is written.
type loggedKV struct {
	db.KV
	log *putLog
}

func (l loggedKV) NewBatch() db.Batch { return &loggedBatch{Batch: l.KV.NewBatch(), log: l.log} }

type loggedBatch struct {
	db.Batch
	log     *putLog
	pending putLog
}

func (b *loggedBatch) Put(key, value []byte) {
	b.pending.add(key, value, false)
	b.Batch.Put(key, value)
}

func (b *loggedBatch) Delete(key []byte) {
	b.pending.add(key, nil, true)
	b.Batch.Delete(key)
}

func (b *loggedBatch) Reset() {
	b.pending = b.pending[:0]
	b.Batch.Reset()
}

func (b *loggedBatch) Write() error {
	if err := b.Batch.Write(); err != nil {
		return err
	}
	*b.log = append(*b.log, b.pending...)
	b.pending = b.pending[:0]
	return nil
}

// settle runs between blocks: the cold twin loses its carried state here.
func (s *warmScript) settle() {
	if !s.carry {
		s.bc.headState = nil
	}
}

func (s *warmScript) transfer(from, to types.Address, wei int64) *Transaction {
	tx := transfer(s.nonce[from], from, to, wei, 0)
	s.nonce[from]++
	return tx
}

func (s *warmScript) mine(cands ...*Transaction) *Block {
	s.t.Helper()
	return s.mineAfter(14, cands...)
}

// mineAfter mines a block interval seconds after the head.
func (s *warmScript) mineAfter(interval uint64, cands ...*Transaction) *Block {
	s.t.Helper()
	s.settle()
	blk, err := s.bc.MineBlock(pool1, s.bc.Head().Header.Time+interval, cands, nil, testSeal)
	if err == nil {
		err = s.bc.Flush()
	}
	if err != nil {
		s.t.Fatalf("MineBlock at %d: %v", s.bc.Head().Number()+1, err)
	}
	if s.carry && s.bc.headState == nil {
		s.t.Fatalf("block %d became head and left no state behind", blk.Number())
	}
	return blk
}

func (s *warmScript) insert(b *Block, wantHead bool) {
	s.t.Helper()
	s.settle()
	if err := s.bc.InsertBlock(b); err != nil {
		s.t.Fatalf("InsertBlock %d: %v", b.Number(), err)
	}
	if isHead := s.bc.Head().Hash() == b.Hash(); isHead != wantHead {
		s.t.Fatalf("block %d: head=%v, want %v", b.Number(), isHead, wantHead)
	}
}

// branch returns a private chain that followed s.bc's canonical chain up to
// height upTo and then mined n blocks of its own, interval seconds apart.
func (s *warmScript) branch(gen *Genesis, upTo uint64, coinbase types.Address, n int, interval uint64) []*Block {
	s.t.Helper()
	donor, err := NewBlockchain(MainnetLikeConfig(), gen)
	if err != nil {
		s.t.Fatal(err)
	}
	for h := uint64(1); h <= upTo; h++ {
		b, _ := s.bc.BlockByNumber(h)
		if err := donor.InsertBlock(b); err != nil {
			s.t.Fatal(err)
		}
	}
	var out []*Block
	for i := 0; i < n; i++ {
		from := s.users[8+i]
		st, err := donor.HeadState()
		if err != nil {
			s.t.Fatal(err)
		}
		cands := []*Transaction{transfer(st.GetNonce(from), from, s.users[0], int64(100+i), 0)}
		b, err := donor.MineBlock(coinbase, donor.Head().Header.Time+interval, cands, nil, testSeal)
		if err != nil {
			s.t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

func runWarmScript(t *testing.T, carry bool) (log []string, head *Block) {
	t.Helper()
	users, gen := mineUsers(16)
	gen.Code = map[types.Address][]byte{slotStore: slotStoreCode}
	s := &warmScript{t: t, carry: carry, users: users, nonce: map[types.Address]uint64{}}

	fk := &tearKV{KV: loggedKV{KV: db.NewMemDB(), log: &s.log}}
	var err error
	if s.bc, err = NewBlockchainWithDB(MainnetLikeConfig(), gen, fk); err == nil {
		err = s.bc.Flush()
	}
	if err != nil {
		t.Fatal(err)
	}
	u := users

	// Mined blocks: plain transfers, a candidate whose sender does not
	// exist (rejected after an absent-account lookup), contract storage
	// written, then one slot zeroed, and an account created.
	rejected := transfer(0, ghost, u[0], 1, 0)
	a1 := s.mine(s.transfer(u[0], u[1], 5), rejected,
		setSlot(0, u[2], 1, 7), setSlot(1, u[2], 2, 9), s.transfer(u[3], u[4], 11))
	if len(a1.Txs) != 4 {
		t.Fatalf("block 1 included %d of 5 candidates, want all but the ghost's", len(a1.Txs))
	}
	s.nonce[u[2]] = 2
	s.mine(s.transfer(u[1], u[0], 3), setSlot(2, u[2], 1, 0), s.transfer(u[4], newcomer, 77))
	s.nonce[u[2]] = 3
	st, err := s.bc.HeadState()
	if err != nil {
		t.Fatal(err)
	}
	slot := func(b byte) types.Hash { return types.BytesToHash([]byte{b}) }
	if got1, got2 := st.GetState(slotStore, slot(1)), st.GetState(slotStore, slot(2)); !got1.IsZero() || got2 != slot(9) {
		t.Fatalf("contract storage after block 2: slot 1 = %s, slot 2 = %s", got1, got2)
	}

	// A side chain off block 1 overtakes the head, and the first chain
	// takes it back.
	bs := s.branch(gen, 1, pool2, 2, 14)
	as := s.branch(gen, 2, pool1, 3, 14)
	s.insert(bs[0], false)
	s.insert(bs[1], true) // reorg onto the side chain
	s.insert(as[0], false)
	s.insert(as[1], true) // and back

	// A block whose header lies about its state root, then the honest one.
	bad, err := DecodeBlock(as[2].Encode())
	if err != nil {
		t.Fatal(err)
	}
	bad.Header.StateRoot[0] ^= 1
	s.settle()
	if err := s.bc.InsertBlock(bad); !errors.Is(err, ErrStateMismatch) {
		t.Fatalf("tampered state root: %v, want ErrStateMismatch", err)
	}
	if s.bc.headState != nil {
		t.Fatal("a rejected block left its state on the chain")
	}
	s.insert(as[2], true)

	// The block's one batch tears two operations in — the store crashes
	// with part of the block's state on it — and, the store reopened, the
	// same candidates are mined again.
	s.settle()
	cands := []*Transaction{s.transfer(u[5], u[6], 13), s.transfer(u[0], u[7], 17)}
	headBefore, writesBefore := s.bc.Head(), len(s.log)
	fk.CrashAtWriteOp(fk.WriteOps() + 3)
	_, err = s.bc.MineBlock(pool1, headBefore.Header.Time+14, cands, nil, testSeal)
	if err == nil {
		err = s.bc.Flush()
	}
	fk.Reopen()
	if !errors.Is(err, errTorn) {
		t.Fatalf("faulted MineBlock: %v, want the crash tearing its batch", err)
	}
	if len(s.log) != writesBefore+2 {
		t.Fatalf("the torn batch applied %d operations, want 2", len(s.log)-writesBefore)
	}
	if s.bc.Head() != headBefore || s.bc.headState != nil {
		t.Fatal("a block whose commit tore moved the head or left its state on the chain")
	}
	s.mine(cands...)

	// And the chain keeps going.
	for i := 0; i < 3; i++ {
		s.mine(s.transfer(u[i], u[i+1], int64(20+i)), s.transfer(u[6], u[5], 1))
	}

	// A shorter but heavier branch moves the head back down: seven slow
	// blocks lower the difficulty, and six quick ones off the block below
	// them outweigh them. The next block executes on the branch's head, not
	// on the state the dropped tail left. The slow blocks' sender is used
	// nowhere else, so the nonces the script tracks stay true.
	fork := s.bc.Head().Number()
	for i := 0; i < 7; i++ {
		s.mineAfter(1000, s.transfer(u[14], u[15], int64(30+i)))
	}
	short := s.branch(gen, fork, pool2, 6, 1)
	for _, b := range short[:5] {
		s.insert(b, false)
	}
	s.insert(short[5], true)
	if got := s.bc.Head().Number(); got != fork+6 {
		t.Fatalf("head %d after the reorg, want %d", got, fork+6)
	}
	s.mine(s.transfer(u[5], u[6], 23), s.transfer(u[0], u[15], 29))
	return s.log, s.bc.Head()
}

func TestCarriedStateWritesWhatAColdOpenWrites(t *testing.T) {
	warmLog, warmHead := runWarmScript(t, true)
	coldLog, coldHead := runWarmScript(t, false)
	if warmHead.Hash() != coldHead.Hash() || warmHead.Header.StateRoot != coldHead.Header.StateRoot {
		t.Fatalf("heads differ: carried %s, cold %s", warmHead.Hash(), coldHead.Hash())
	}
	if len(warmLog) != len(coldLog) {
		t.Fatalf("carried run wrote %d ops, cold run %d", len(warmLog), len(coldLog))
	}
	for i := range warmLog {
		if warmLog[i] != coldLog[i] {
			t.Fatalf("write %d differs:\ncarried %s\ncold    %s", i, warmLog[i], coldLog[i])
		}
	}
	t.Logf("%d writes, identical", len(warmLog))
}

// TestImportChainReadBudget is TestMineBlockReadBudget's twin for the
// replica path: InsertBlock carries the state from one imported block to
// the next, so a block costs the store reads of the paths it newly touches,
// not of a whole parent-state open.
func TestImportChainReadBudget(t *testing.T) {
	const blocks, perBlock = 40, 6
	const ceiling = 6 // measured 2.2 reads/block; 25.1 with every parent state opened cold
	src := mineDense(t, db.NewMemDB(), blocks, perBlock)
	var buf bytes.Buffer
	if err := src.WriteChain(&buf); err != nil {
		t.Fatal(err)
	}
	_, gen := mineUsers(64)
	dst, err := NewBlockchain(MainnetLikeConfig(), gen)
	if err != nil {
		t.Fatal(err)
	}
	before := dst.StorageStats().Reads
	if n, err := dst.ImportChain(&buf); err != nil || n != blocks {
		t.Fatalf("imported %d of %d blocks: %v", n, blocks, err)
	}
	got := float64(dst.StorageStats().Reads-before) / blocks
	t.Logf("%.1f reads per imported block", got)
	if got > ceiling {
		t.Fatalf("%.1f store reads per imported block, ceiling %d: is the parent state opened cold?", got, ceiling)
	}
}

// TestReadersOpenTheirOwnStateWhileMining: StateAt never hands out the
// carried state, so RPC-style readers walk their own cold tries while the
// miner mutates its resident one. Meaningful under -race.
func TestReadersOpenTheirOwnStateWhileMining(t *testing.T) {
	users, gen := mineUsers(16)
	bc, err := NewBlockchain(MainnetLikeConfig(), gen)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				st, err := bc.HeadState()
				if err != nil {
					t.Error(err)
					return
				}
				for _, u := range users {
					st.GetBalance(u)
				}
			}
		}()
	}
	for b := 0; b < 50; b++ {
		from := users[b%len(users)]
		tx := transfer(uint64(b/len(users)), from, users[(b+1)%len(users)], 1, 0)
		if _, err := bc.MineBlock(pool1, bc.Head().Header.Time+14, []*Transaction{tx}, nil, testSeal); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	readers.Wait()
}
