package chain

import (
	"errors"
	"fmt"
	"math/big"
	"sync"

	"forkwatch/internal/db"
	"forkwatch/internal/state"
	"forkwatch/internal/types"
)

// Insertion errors.
var (
	ErrKnownBlock      = errors.New("chain: block already known")
	ErrUnknownParent   = errors.New("chain: unknown parent")
	ErrInvalidHeader   = errors.New("chain: invalid header")
	ErrInvalidBody     = errors.New("chain: invalid body")
	ErrStateMismatch   = errors.New("chain: state root mismatch")
	ErrSideOfPartition = errors.New("chain: block belongs to the other side of the DAO partition")
	// ErrNoChain reports an Open over a store holding no chain.
	ErrNoChain = errors.New("chain: store holds no chain")
)

// DAOForkExtra is the extra-data marker pro-fork miners stamp on blocks
// around the fork height. The supporting chain requires it; the classic
// chain rejects it — this is the consensus-level partition mechanism.
var DAOForkExtra = []byte("dao-hard-fork")

// DAOForkExtraRange is how many blocks from the fork the marker is
// enforced (10 in Ethereum).
const DAOForkExtraRange = 10

// Genesis specifies block zero.
type Genesis struct {
	// Difficulty seeds the difficulty filter.
	Difficulty *big.Int
	// Time is the genesis timestamp (simulation epoch).
	Time uint64
	// Alloc pre-funds accounts.
	Alloc map[types.Address]*big.Int
	// Code installs pre-deployed contracts (e.g. the DAO).
	Code map[types.Address][]byte
}

// Blockchain is one partition's ledger: block store, state store, total
// difficulty fork choice and the canonical index the analysis layer reads.
// Safe for concurrent use.
//
// Every persistent record — trie nodes, block bodies, receipts, total
// difficulties, the canonical index — lives in one db.KV behind Store,
// read and written through the chain's one stager (Flush lands what it
// holds). Decoded blocks and TDs are additionally kept in in-memory maps:
// they are read on every validation and fork-choice step, and re-decoding
// them from RLP per access would dominate. A block's state root is its header's
// (execution rejects any other). Receipts are read only by the serving
// layer, so they live in the KV alone.
type Blockchain struct {
	cfg   *Config
	proc  *Processor
	store *Store
	// coal is the chain's one stager: every state and store read and
	// every commit goes through it.
	coal *db.Coalescer

	mu      sync.RWMutex
	blocks  map[types.Hash]*Block
	tds     map[types.Hash]*big.Int
	canon   map[uint64]types.Hash
	head    *Block
	genesis *Block
	staged  *undo // undoes what coal holds (rollback); nil: no block staged

	// headState is the state the block that last became head left behind,
	// committed at headStateRoot: its account trie is still resident, so
	// the head's child executes without re-reading the parent state from
	// the store (takeState, keepState). Nil whenever there is none.
	headState     *state.DB
	headStateRoot types.Hash
}

// NewBlockchain creates a chain from genesis under the given rules, over a
// fresh default in-memory store.
func NewBlockchain(cfg *Config, gen *Genesis) (*Blockchain, error) {
	return NewBlockchainWithDB(cfg, gen, db.NewMemDB())
}

// NewBlockchainWithDB creates a chain from genesis over the given store
// (the Storage scenario knob plumbs a configured backend through here).
// Genesis is staged: it is durable once Flush, or the first InsertChain,
// lands it.
func NewBlockchainWithDB(cfg *Config, gen *Genesis, kv db.KV) (*Blockchain, error) {
	bc := newChain(cfg, NewStore(kv))
	st, err := state.New(types.Hash{}, bc.coal)
	if err != nil {
		return nil, err
	}
	for addr, bal := range gen.Alloc {
		st.SetBalance(addr, bal)
	}
	for addr, code := range gen.Code {
		st.SetCode(addr, code)
	}
	// Genesis is one commit like any block: its state and its records land
	// as one batch.
	batch := bc.coal.NewBatch()
	root, err := st.CommitTo(batch)
	if err != nil {
		return nil, err
	}
	diff := gen.Difficulty
	if diff == nil {
		diff = types.BigCopy(cfg.MinimumDifficulty)
	}
	header := &Header{
		Number:      0,
		Time:        gen.Time,
		Difficulty:  types.BigCopy(diff),
		GasLimit:    cfg.GasLimit,
		StateRoot:   root,
		TxRoot:      TxRoot(nil),
		ReceiptRoot: ReceiptRoot(nil),
		UncleHash:   EmptyUncleHash,
	}
	genesis := &Block{Header: header}
	bc.blocks[genesis.Hash()] = genesis
	bc.tds[genesis.Hash()] = types.BigCopy(diff)
	bc.canon[0] = genesis.Hash()
	bc.head, bc.genesis = genesis, genesis
	store := bc.store
	wb := store.NewWALBatch()
	store.PutBlock(wb, genesis)
	store.PutReceipts(wb, genesis.Hash(), nil)
	store.PutTD(wb, genesis.Hash(), diff)
	store.PutStateRoot(wb, genesis.Hash(), root)
	store.PutCanon(wb, 0, genesis.Hash())
	store.PutHead(wb, genesis.Hash())
	if err := store.CommitWAL(batch, wb); err != nil {
		return nil, err
	}
	return bc, nil
}

// newChain returns a chain with no blocks yet over store, whose reads and
// writes go through the chain's stager from now on.
func newChain(cfg *Config, store *Store) *Blockchain {
	coal := db.NewCoalescer(store.kv)
	store.kv = coal
	return &Blockchain{
		cfg:    cfg,
		proc:   NewProcessor(cfg),
		store:  store,
		coal:   coal,
		blocks: make(map[types.Hash]*Block),
		tds:    make(map[types.Hash]*big.Int),
		canon:  make(map[uint64]types.Hash),
	}
}

// Open reopens an existing chain from its store, running WAL recovery
// first: a torn batch from a crash mid-commit is redone, so the chain
// reopens exactly at its last durably committed head. Returns ErrNoChain
// for a store holding no chain at all (create one with
// NewBlockchainWithDB instead), and an error wrapping ErrCorruptStore
// when recovery cannot restore a consistent chain (the caller falls back
// to re-import or resync).
func Open(cfg *Config, kv db.KV) (*Blockchain, error) {
	store := NewStore(kv)
	if err := store.RecoverWAL(); err != nil {
		return nil, err
	}
	headHash, ok, err := store.Head()
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, ErrNoChain
	}
	head, ok, err := store.Block(headHash)
	if err != nil || !ok {
		return nil, fmt.Errorf("%w: head block %s unreadable (%v)", ErrCorruptStore, headHash, err)
	}

	bc := newChain(cfg, store)
	// Rebuild the in-memory indices by walking the canonical chain. Side
	// branches persist in the store but are not re-indexed; they are
	// rediscovered through gossip, like any node restarting from disk.
	var prev *Block
	for n := uint64(0); n <= head.Number(); n++ {
		h, ok, err := store.CanonHash(n)
		if err != nil || !ok {
			return nil, fmt.Errorf("%w: canon index missing height %d (%v)", ErrCorruptStore, n, err)
		}
		b, ok, err := store.Block(h)
		if err != nil || !ok {
			return nil, fmt.Errorf("%w: canonical block %d (%s) unreadable (%v)", ErrCorruptStore, n, h, err)
		}
		if prev != nil && b.Header.ParentHash != prev.Hash() {
			return nil, fmt.Errorf("%w: canon chain broken at height %d", ErrCorruptStore, n)
		}
		td, ok, err := store.TD(h)
		if err != nil || !ok {
			return nil, fmt.Errorf("%w: no TD for canonical block %d (%v)", ErrCorruptStore, n, err)
		}
		root, ok, err := store.StateRoot(h)
		if err != nil || !ok {
			return nil, fmt.Errorf("%w: no state root for canonical block %d (%v)", ErrCorruptStore, n, err)
		}
		if root != b.Header.StateRoot {
			return nil, fmt.Errorf("%w: canonical block %d records state root %s, header %s", ErrCorruptStore, n, root, b.Header.StateRoot)
		}
		bc.blocks[h] = b
		bc.tds[h] = td
		bc.canon[n] = h
		if n == 0 {
			bc.genesis = b
		}
		prev = b
	}
	bc.head = bc.blocks[headHash]
	if bc.head == nil || bc.genesis == nil {
		return nil, fmt.Errorf("%w: head %s not on canonical chain", ErrCorruptStore, headHash)
	}
	// The head state must be openable, or every future insert would fail.
	if _, err := state.New(bc.head.Header.StateRoot, bc.coal); err != nil {
		return nil, fmt.Errorf("%w: head state unopenable (%v)", ErrCorruptStore, err)
	}
	return bc, nil
}

// NewSibling creates a second partition sharing this chain's genesis block
// (and therefore its pre-fork state) under different rules. The returned
// chain has its own stores; history built on one side never leaks into the
// other except through explicit block/tx gossip — exactly the paper's
// setting.
func (bc *Blockchain) NewSibling(cfg *Config, gen *Genesis) (*Blockchain, error) {
	sib, err := NewBlockchain(cfg, gen)
	if err != nil {
		return nil, err
	}
	if sib.genesis.Hash() != bc.genesis.Hash() {
		return nil, fmt.Errorf("chain: sibling genesis diverged: %s vs %s", sib.genesis.Hash(), bc.genesis.Hash())
	}
	return sib, nil
}

// Config returns the chain's rule set.
func (bc *Blockchain) Config() *Config { return bc.cfg }

// Processor returns the chain's transaction processor.
func (bc *Blockchain) Processor() *Processor { return bc.proc }

// Genesis returns block zero.
func (bc *Blockchain) Genesis() *Block { return bc.genesis }

// Head returns the current canonical head.
func (bc *Blockchain) Head() *Block {
	bc.mu.RLock()
	defer bc.mu.RUnlock()
	return bc.head
}

// ForkID returns the fork id at the current head (for the p2p handshake).
func (bc *Blockchain) ForkID() ForkID {
	return bc.cfg.ForkIDAt(new(big.Int).SetUint64(bc.Head().Number()))
}

// GetBlock returns a block by hash.
func (bc *Blockchain) GetBlock(h types.Hash) (*Block, bool) {
	bc.mu.RLock()
	defer bc.mu.RUnlock()
	b, ok := bc.blocks[h]
	return b, ok
}

// HasBlock reports whether the block is known.
func (bc *Blockchain) HasBlock(h types.Hash) bool {
	bc.mu.RLock()
	defer bc.mu.RUnlock()
	_, ok := bc.blocks[h]
	return ok
}

// BlockByNumber returns the canonical block at the given height.
func (bc *Blockchain) BlockByNumber(n uint64) (*Block, bool) {
	bc.mu.RLock()
	defer bc.mu.RUnlock()
	h, ok := bc.canon[n]
	if !ok {
		return nil, false
	}
	return bc.blocks[h], true
}

// TD returns the total difficulty of a known block.
func (bc *Blockchain) TD(h types.Hash) (*big.Int, bool) {
	bc.mu.RLock()
	defer bc.mu.RUnlock()
	td, ok := bc.tds[h]
	if !ok {
		return nil, false
	}
	return types.BigCopy(td), true
}

// TransactionByHash resolves a transaction through the store's tx index:
// the transaction, the hash and number of the block that included it, and
// its position in that block. ok=false means the hash is unknown. It reads
// under the chain's read lock, so it never sees a run InsertChain has
// staged but not yet landed.
func (bc *Blockchain) TransactionByHash(h types.Hash) (tx *Transaction, blockHash types.Hash, blockNumber uint64, index uint32, ok bool, err error) {
	bc.mu.RLock()
	t, lk, num, ok, err := bc.store.Transaction(h)
	bc.mu.RUnlock()
	if err != nil || !ok {
		return nil, types.Hash{}, 0, 0, false, err
	}
	return t, lk.BlockHash, num, lk.Index, true, nil
}

// ReceiptByTxHash resolves a transaction's execution receipt through the
// store's tx index, under the read lock as TransactionByHash does.
// Store.Receipt also returns the block's number.
func (bc *Blockchain) ReceiptByTxHash(h types.Hash) (r *Receipt, blockHash types.Hash, index uint32, ok bool, err error) {
	bc.mu.RLock()
	rec, lk, _, ok, err := bc.store.Receipt(h)
	bc.mu.RUnlock()
	if err != nil || !ok {
		return nil, types.Hash{}, 0, false, err
	}
	return rec, lk.BlockHash, lk.Index, true, nil
}

// Store returns the chain's KV persistence schema (shared with the state
// trie). Export tooling reads blocks and receipts through it.
func (bc *Blockchain) Store() *Store { return bc.store }

// StorageStats reports the backing store's counters, reads the stager
// answered included.
func (bc *Blockchain) StorageStats() db.Stats { return bc.coal.Stats() }

// Flush lands everything staged since the last flush — genesis, mined
// blocks — in the store as one batch: a nil return means all of it is
// durable. On error the chain drops all of it and goes back to its last
// durable head (rollback); one whose genesis never landed is of no use.
func (bc *Blockchain) Flush() error {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	return bc.flush()
}

// flush is Flush for callers that hold bc.mu.
func (bc *Blockchain) flush() error {
	if err := bc.coal.Flush(); err != nil {
		bc.rollback()
		return err
	}
	bc.staged = nil
	return nil
}

// StateAt opens the state committed by the given block.
func (bc *Blockchain) StateAt(h types.Hash) (*state.DB, error) {
	b, ok := bc.GetBlock(h)
	if !ok {
		return nil, fmt.Errorf("chain: no state for block %s", h)
	}
	return state.New(b.Header.StateRoot, bc.coal)
}

// HeadState opens the state at the canonical head.
func (bc *Blockchain) HeadState() (*state.DB, error) {
	return bc.StateAt(bc.Head().Hash())
}

// takeState returns the state committed at root for a block to execute on:
// the one the head left behind when that is it, otherwise (side-chain
// parent, first block after a reorg, reopen or genesis) a cold open. A taken
// state is gone from the chain, so a block that fails anywhere — bad body,
// root mismatch, failed commit, crash — takes its half-executed state with
// it; only keepState puts one back. Callers hold bc.mu.
func (bc *Blockchain) takeState(root types.Hash) (*state.DB, error) {
	if st := bc.headState; st != nil && bc.headStateRoot == root {
		bc.headState = nil
		if st.Error() == nil {
			return st, nil
		}
	}
	return state.New(root, bc.coal)
}

// keepState hands the chain the state b's execution committed at root, once
// b is staged: it is kept only if b became the head, and a flush that
// fails drops it again (rollback).
func (bc *Blockchain) keepState(b *Block, st *state.DB, root types.Hash) {
	if bc.head == b {
		bc.headState, bc.headStateRoot = st, root
	}
}

// MaxRun is the most blocks one commit carries: ImportChain hands
// InsertChain runs of at most this many blocks, and a p2p peer serves block
// ranges of at most this many, so a received range lands as one commit.
const MaxRun = 128

// InsertBlock inserts one block: InsertChain of a run of one. It returns
// ErrKnownBlock for duplicates and ErrUnknownParent when the parent has
// not arrived yet (callers queue and retry, as gossip is unordered).
func (bc *Blockchain) InsertBlock(b *Block) error {
	n, err := bc.InsertChain([]*Block{b})
	if n == 0 && err == nil {
		return ErrKnownBlock
	}
	return err
}

// InsertChain inserts blocks in order, each validated, executed and put
// through total-difficulty fork choice, and lands them as ONE commit: each
// block's state stages as it executes, so the next block reads it, the
// run's records collect into one WAL record, and the run, flushed on its
// own before InsertChain returns, reaches the store as one batch —
// [state nodes…, WAL record, chain records…, watermark]. Known blocks are
// skipped. It returns how many blocks it inserted; callers hand it runs of
// at most MaxRun blocks.
//
// At the first block that fails, the blocks before it are committed and
// the block's error is returned, naming it. If the flush fails, none of
// the run is inserted: the chain stays at its last committed head, which
// is what reopening the store would rebuild. Readers of the view and the
// tx index wait on the lock InsertChain holds, so none sees a run before
// it is durable.
func (bc *Blockchain) InsertChain(blocks []*Block) (int, error) {
	bc.mu.Lock()
	defer bc.mu.Unlock()

	if err := bc.flush(); err != nil {
		return 0, err
	}
	batch, wal := bc.newCommit()
	n := 0
	var failed error
	for _, b := range blocks {
		err := bc.check(b)
		if errors.Is(err, ErrKnownBlock) {
			continue // resuming over an overlap
		}
		if err == nil {
			err = bc.insertInRun(wal, b)
		}
		if err != nil {
			failed = fmt.Errorf("block %d: %w", b.Number(), err)
			break
		}
		n++
	}
	if n == 0 {
		return 0, failed
	}
	if err := bc.store.CommitWAL(batch, wal); err != nil {
		bc.rollback()
		return 0, err
	}
	if err := bc.flush(); err != nil {
		return 0, err
	}
	return n, failed
}

// insertInRun executes a checked block of a run and stages it into wal. The
// state it commits enters the stager only once every check has passed, so
// the next block of the run can read it and a rejected block leaves
// nothing behind; the state is carried to the next block (keepState), and
// dropped again if the run fails to land (rollback).
func (bc *Blockchain) insertInRun(wal *WALBatch, b *Block) error {
	nodes := bc.coal.NewBatch()
	st, receipts, root, err := bc.execute(b, nodes)
	if err != nil {
		return err
	}
	if err := nodes.Write(); err != nil {
		return err
	}
	bc.stage(wal, b, receipts, root)
	bc.keepState(b, st, root)
	return nil
}

// check runs the validation that needs no execution: b is not known yet,
// its parent is, and its header and body are valid against that parent.
// Callers hold bc.mu.
func (bc *Blockchain) check(b *Block) error {
	if _, known := bc.blocks[b.Hash()]; known {
		return ErrKnownBlock
	}
	parent, ok := bc.blocks[b.Header.ParentHash]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownParent, b.Header.ParentHash)
	}
	if err := bc.validateHeader(b.Header, parent.Header); err != nil {
		return err
	}
	return bc.validateBody(b)
}

// execute runs a checked block on the state its parent left (takeState),
// queues the state it commits into batch and checks that state and the
// receipts against the header's roots. Nothing is written: a block that
// fails here leaves no trace in the store, only a state to drop.
func (bc *Blockchain) execute(b *Block, batch db.Batch) (*state.DB, []*Receipt, types.Hash, error) {
	st, err := bc.takeState(bc.blocks[b.Header.ParentHash].Header.StateRoot)
	if err != nil {
		return nil, nil, types.Hash{}, err
	}
	receipts, err := bc.proc.Process(b, st)
	if err != nil {
		return nil, nil, types.Hash{}, fmt.Errorf("%w: %v", ErrInvalidBody, err)
	}
	root, err := st.CommitTo(batch)
	if err != nil {
		return nil, nil, types.Hash{}, err
	}
	if root != b.Header.StateRoot {
		return nil, nil, types.Hash{}, fmt.Errorf("%w: computed %s, header %s", ErrStateMismatch, root, b.Header.StateRoot)
	}
	if got := ReceiptRoot(receipts); got != b.Header.ReceiptRoot {
		return nil, nil, types.Hash{}, fmt.Errorf("%w: receipt root %s, header %s", ErrInvalidBody, got, b.Header.ReceiptRoot)
	}
	return st, receipts, root, nil
}

// undo puts the chain's view back where the last flush left it: the head
// and WAL sequence then, the blocks added since, and the canonical heights
// rewritten since, with the hash each held then (zero: none).
type undo struct {
	head   *Block
	walSeq uint64
	added  []types.Hash
	canon  map[uint64]types.Hash
}

// newCommit starts a commit — a block, or a run of blocks — on top of the
// current head: a stager batch for its state nodes and a WALBatch for its
// records, which Store.CommitWAL stages as one batch. Callers hold bc.mu
// throughout, InsertChain on to the flush, so no reader sees a run before
// its records are in the store.
func (bc *Blockchain) newCommit() (db.Batch, *WALBatch) {
	if bc.staged == nil {
		bc.staged = &undo{head: bc.head, walSeq: bc.store.walSeq, canon: make(map[uint64]types.Hash)}
	}
	return bc.coal.NewBatch(), bc.store.NewWALBatch()
}

// stage queues the records of b, executed to root, into wb — body,
// receipts, TD, state root, tx index and, when b wins total-difficulty fork
// choice, the canonical-index rewrite and the head marker — and applies the
// same change to the in-memory view at once, so the next block of a run
// validates against it, noting in bc.staged what undoes it.
func (bc *Blockchain) stage(wb *WALBatch, b *Block, receipts []*Receipt, root types.Hash) {
	s := bc.store
	hash := b.Hash()
	td := new(big.Int).Add(bc.tds[b.Header.ParentHash], b.Header.Difficulty)
	s.PutBlock(wb, b)
	s.PutReceipts(wb, hash, receipts)
	s.PutTD(wb, hash, td)
	s.PutStateRoot(wb, hash, root)
	s.PutBlockTxIndices(wb, b)
	bc.blocks[hash], bc.tds[hash] = b, td
	bc.staged.added = append(bc.staged.added, hash)

	if td.Cmp(bc.tds[bc.head.Hash()]) <= 0 {
		return
	}
	updates, stale := bc.canonDelta(b)
	for _, u := range updates {
		s.PutCanon(wb, u.Number(), u.Hash())
		// A reorg adopts previously side-chain blocks: repoint their
		// transactions' lookup entries at the now-canonical copies so the
		// index always resolves along the canonical chain.
		if u != b {
			s.PutBlockTxIndices(wb, u)
		}
		bc.setCanon(u.Number(), u.Hash())
	}
	for _, n := range stale {
		s.DeleteCanon(wb, n)
		bc.setCanon(n, types.Hash{})
	}
	s.PutHead(wb, hash)
	bc.head = b
}

// setCanon points the in-memory canonical index at h for height n (zero:
// no entry), noting the value the last flush left there.
func (bc *Blockchain) setCanon(n uint64, h types.Hash) {
	if _, saved := bc.staged.canon[n]; !saved {
		bc.staged.canon[n] = bc.canon[n]
	}
	if h.IsZero() {
		delete(bc.canon, n)
	} else {
		bc.canon[n] = h
	}
}

// rollback drops everything the stager holds and puts the view back where
// the last flush left it, without a carried state, as a chain reopened over
// the store would be. Callers hold bc.mu.
func (bc *Blockchain) rollback() {
	bc.coal.Discard()
	bc.headState = nil
	u := bc.staged
	if u == nil {
		return
	}
	bc.staged = nil
	for _, h := range u.added {
		delete(bc.blocks, h)
		delete(bc.tds, h)
	}
	for n, h := range u.canon {
		if h.IsZero() {
			delete(bc.canon, n)
		} else {
			bc.canon[n] = h
		}
	}
	bc.head, bc.store.walSeq = u.head, u.walSeq
}

// canonDelta computes the canonical-index rewrite that making b the head
// requires: the blocks along b's path back to the existing canonical chain
// (b first, so the staged writes come in one fixed order), plus the stale
// heights to remove after a reorg to a shorter-but-heavier chain. Pure with
// respect to chain state — stage applies the delta once it is computed.
func (bc *Blockchain) canonDelta(b *Block) (updates []*Block, stale []uint64) {
	cur := b
	for {
		n := cur.Number()
		if bc.canon[n] == cur.Hash() {
			break
		}
		updates = append(updates, cur)
		if n == 0 {
			break
		}
		cur = bc.blocks[cur.Header.ParentHash]
	}
	for n := b.Number() + 1; n <= bc.head.Number(); n++ {
		stale = append(stale, n)
	}
	return updates, stale
}

func (bc *Blockchain) validateHeader(h, parent *Header) error {
	if h.Number != parent.Number+1 {
		return fmt.Errorf("%w: number %d after parent %d", ErrInvalidHeader, h.Number, parent.Number)
	}
	if h.Time <= parent.Time {
		return fmt.Errorf("%w: timestamp %d not after parent %d", ErrInvalidHeader, h.Time, parent.Time)
	}
	want := CalcDifficulty(bc.cfg, h.Time, parent)
	if h.Difficulty == nil || h.Difficulty.Cmp(want) != 0 {
		return fmt.Errorf("%w: difficulty %v, want %v", ErrInvalidHeader, h.Difficulty, want)
	}
	if err := ValidateGasLimit(h.GasLimit, parent.GasLimit); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidHeader, err)
	}
	if h.GasUsed > h.GasLimit {
		return fmt.Errorf("%w: gas used %d exceeds limit %d", ErrInvalidHeader, h.GasUsed, h.GasLimit)
	}
	// The DAO partition rule: within the enforcement window after the
	// fork height, the supporting chain requires the marker and the
	// classic chain rejects it.
	if bc.cfg.DAOForkBlock != nil {
		forkNum := bc.cfg.DAOForkBlock.Uint64()
		if h.Number >= forkNum && h.Number < forkNum+DAOForkExtraRange {
			hasMarker := string(h.Extra) == string(DAOForkExtra)
			if bc.cfg.DAOForkSupport && !hasMarker {
				return fmt.Errorf("%w: missing dao-hard-fork extra at block %d", ErrSideOfPartition, h.Number)
			}
			if !bc.cfg.DAOForkSupport && hasMarker {
				return fmt.Errorf("%w: dao-hard-fork extra at block %d", ErrSideOfPartition, h.Number)
			}
		}
	}
	return nil
}

func (bc *Blockchain) validateBody(b *Block) error {
	if got := b.ComputedTxRoot(); got != b.Header.TxRoot {
		return fmt.Errorf("%w: tx root %s, header %s", ErrInvalidBody, got, b.Header.TxRoot)
	}
	if err := bc.validateUncles(b.Header, b.Uncles, b.Hash()); err != nil {
		return err
	}
	for i, tx := range b.Txs {
		if err := tx.VerifySig(); err != nil {
			return fmt.Errorf("%w: tx %d: %v", ErrInvalidBody, i, err)
		}
	}
	return nil
}

// BuildBlock assembles and executes a block on top of the current head:
// the miner's job, minus the PoW seal. Transactions must already be valid
// in head-state order. The returned block carries correct difficulty, gas
// and roots and is ready for pow.Seal and InsertBlock.
func (bc *Blockchain) BuildBlock(coinbase types.Address, time uint64, txs []*Transaction) (*Block, error) {
	return bc.BuildBlockWithUncles(coinbase, time, txs, nil)
}

// BuildBlockWithUncles is BuildBlock with explicit uncle inclusion (see
// CollectUncles for the miner's candidate set).
func (bc *Blockchain) BuildBlockWithUncles(coinbase types.Address, time uint64, txs []*Transaction, uncles []*Header) (*Block, error) {
	bc.mu.Lock()
	defer bc.mu.Unlock()

	block := &Block{Header: bc.nextHeader(coinbase, time, uncles), Txs: txs, Uncles: uncles}
	st, err := state.New(bc.head.Header.StateRoot, bc.coal)
	if err != nil {
		return nil, err
	}
	receipts, err := bc.proc.Process(block, st)
	if err != nil {
		return nil, err
	}
	root, err := st.Commit()
	if err != nil {
		return nil, err
	}
	fillRoots(block, receipts, root)
	return block, nil
}

// nextHeader assembles the header of a child of the current head: bumped
// timestamp, difficulty, gas-limit vote, DAO marker and uncle commitment.
// The execution results (fillRoots) and the seal are still to come.
func (bc *Blockchain) nextHeader(coinbase types.Address, time uint64, uncles []*Header) *Header {
	parent := bc.head
	if time <= parent.Header.Time {
		time = parent.Header.Time + 1
	}
	header := &Header{
		ParentHash: parent.Hash(),
		Number:     parent.Number() + 1,
		Time:       time,
		Difficulty: CalcDifficulty(bc.cfg, time, parent.Header),
		GasLimit:   NextGasLimit(parent.Header.GasLimit, bc.cfg.GasLimit),
		Coinbase:   coinbase,
		UncleHash:  CalcUncleHash(uncles),
	}
	if bc.cfg.DAOForkBlock != nil && bc.cfg.DAOForkSupport {
		forkNum := bc.cfg.DAOForkBlock.Uint64()
		if header.Number >= forkNum && header.Number < forkNum+DAOForkExtraRange {
			header.Extra = append([]byte(nil), DAOForkExtra...)
		}
	}
	return header
}

// fillRoots completes an executed block's header from its receipts and
// committed state root. Computing the tx root through the block memoizes
// it, so a later body validation will not rebuild the trie.
func fillRoots(block *Block, receipts []*Receipt, root types.Hash) {
	header := block.Header
	for _, r := range receipts {
		header.GasUsed += r.GasUsed
	}
	header.StateRoot = root
	header.TxRoot = block.ComputedTxRoot()
	header.ReceiptRoot = ReceiptRoot(receipts)
}

// MineBlock is the local miner's door: it builds a child of the current
// head from the candidates that still apply, and stages it as one commit,
// executing every transaction exactly once and committing the state once.
// The block is the head, and readable, when MineBlock returns; it is
// durable once the caller's Flush lands it.
// Candidates run in order against the real header; one that no longer
// validates or does not fit the gas pool is skipped (ApplyTransaction
// rejects before it mutates). seal stamps the PoW seal on the otherwise
// finished header. The block is the chain's own product, so apart from the
// caller's uncle list — checked before anything executes — nothing is
// re-validated, and nothing is re-executed, on the way to the store; blocks
// from anywhere else go through InsertBlock.
func (bc *Blockchain) MineBlock(coinbase types.Address, time uint64, candidates []*Transaction, uncles []*Header, seal func(*Header)) (*Block, error) {
	bc.mu.Lock()
	defer bc.mu.Unlock()

	header := bc.nextHeader(coinbase, time, uncles)
	if len(uncles) > 0 {
		// The one input execution does not check, checked before it runs.
		if err := bc.validateUncles(header, uncles, types.Hash{}); err != nil {
			return nil, err
		}
	}
	st, err := bc.takeState(bc.head.Header.StateRoot)
	if err != nil {
		return nil, err
	}
	bc.proc.applyIrregular(header.Number, st)
	block := &Block{Header: header, Uncles: uncles}
	var receipts []*Receipt
	gasPool := header.GasLimit
	for _, tx := range candidates {
		rec, used, err := bc.proc.ApplyTransaction(tx, st, header, gasPool)
		if err != nil {
			continue
		}
		gasPool -= used
		block.Txs = append(block.Txs, tx)
		receipts = append(receipts, rec)
	}
	bc.proc.payRewards(header, uncles, st)
	batch, wal := bc.newCommit()
	root, err := st.CommitTo(batch)
	if err != nil {
		return nil, err
	}
	fillRoots(block, receipts, root)
	seal(header)
	bc.stage(wal, block, receipts, root)
	if err := bc.store.CommitWAL(batch, wal); err != nil {
		bc.rollback()
		return nil, err
	}
	bc.keepState(block, st, root)
	return block, nil
}

// CanonicalBlocks returns the canonical blocks in [from, to] (inclusive,
// clamped to the head). The analysis layer iterates these exactly as the
// paper iterates its exported block table.
func (bc *Blockchain) CanonicalBlocks(from, to uint64) []*Block {
	bc.mu.RLock()
	defer bc.mu.RUnlock()
	if to > bc.head.Number() {
		to = bc.head.Number()
	}
	var out []*Block
	for n := from; n <= to; n++ {
		h, ok := bc.canon[n]
		if !ok {
			continue
		}
		out = append(out, bc.blocks[h])
	}
	return out
}
