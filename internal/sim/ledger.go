// Package sim composes the substrates — chain, pow, market, pool and a
// user/attacker workload — into the two-partition fork scenario the paper
// measures, and streams per-block and per-day events to observers (the
// analysis package implements one).
//
// Two ledger fidelities share the same consensus rules (chain.Config and
// chain.CalcDifficulty) and the same transaction objects:
//
//   - Full: real chain.Blockchain blocks — EVM execution, state roots,
//     PoW seals. Used by short-horizon runs, the archive and E1/E3.
//   - Fast: header-and-account simulation for nine-month horizons
//     (~3.3M blocks), where trie commits per block would dominate.
//     Difficulty, timestamps, nonce/balance/replay semantics are
//     identical; EVM execution is skipped (contract transactions are
//     carried and flagged, not executed). A conformance test pins the
//     fast ledger to the full one block for block.
package sim

import (
	"fmt"
	"math/big"
	"math/rand"

	"forkwatch/internal/chain"
	"forkwatch/internal/db"
	"forkwatch/internal/pow"
	"forkwatch/internal/state"
	"forkwatch/internal/types"
)

// Ledger is the per-chain surface the engine mines against.
//
// Ledgers are not safe for concurrent use; the engine gives each
// partition exclusive ownership of its ledger between day barriers, so
// the two chains can be stepped on separate goroutines without locks.
type Ledger interface {
	// Config returns the chain's rule set.
	Config() *chain.Config
	// Head returns the current height, head timestamp and difficulty of
	// the next block mined at the head timestamp + target.
	HeadNumber() uint64
	// HeadTime returns the head block's timestamp.
	HeadTime() uint64
	// HeadDifficulty returns the head block's difficulty.
	HeadDifficulty() *big.Int
	// HeadDifficultyFloat returns types.BigToFloat64 of the head
	// difficulty without copying the big.Int — the sampler's hot input,
	// consumed once per block attempt.
	HeadDifficultyFloat() float64
	// ValidateTx checks a transaction against the head state exactly as
	// consensus would.
	ValidateTx(tx *chain.Transaction) error
	// MineBlock appends a block at the given timestamp, including as
	// many of txs as remain valid when applied in order. It returns the
	// included transactions.
	MineBlock(time uint64, coinbase types.Address, txs []*chain.Transaction) ([]*chain.Transaction, error)
	// NonceOf returns the head-state nonce of an account.
	NonceOf(a types.Address) uint64
	// BalanceOf returns the head-state balance of an account.
	BalanceOf(a types.Address) *big.Int
}

// fastAccount is the fast ledger's view of one account.
type fastAccount struct {
	nonce   uint64
	balance *big.Int
}

// FastLedger simulates headers and account balances under the full
// difficulty and replay rules, without EVM execution or tries.
//
// Per-block and per-transaction arithmetic runs entirely in reusable
// scratch space (DESIGN.md §15): the difficulty double-buffers through
// diffScratch, fees and costs accumulate in dedicated big.Ints, and the
// included-transaction slices of a day's blocks are carved out of one
// arena the engine resets at the day barrier. None of this is visible to
// callers — the ledger is single-goroutine by contract.
type FastLedger struct {
	cfg      *chain.Config
	number   uint64
	time     uint64
	diff     *big.Int
	accounts map[types.Address]*fastAccount
	// contracts marks addresses that carry code, for receipt-style
	// classification of calls.
	contracts map[types.Address]bool

	// diffFloat caches types.BigToFloat64(diff), refreshed on every head
	// change; the sampler reads it once per block attempt.
	diffFloat float64
	// diffScratch is the spare head-difficulty buffer NextDifficulty
	// writes into before the swap.
	diffScratch *big.Int
	numScratch  big.Int // block-number scratch for rule checks
	feeScratch  big.Int // per-transaction fee accumulation
	costScratch big.Int // CostInto destination
	costTmp     big.Int // CostInto clobber
	// incArena backs MineBlock's included-transaction slices for the
	// current day; resetDayArena truncates it at the day barrier.
	incArena []*chain.Transaction
}

// NewFastLedger creates a fast ledger from a genesis spec.
func NewFastLedger(cfg *chain.Config, gen *chain.Genesis) *FastLedger {
	l := &FastLedger{
		cfg:         cfg,
		time:        gen.Time,
		diff:        types.BigCopy(gen.Difficulty),
		diffScratch: new(big.Int),
		accounts:    make(map[types.Address]*fastAccount),
		contracts:   make(map[types.Address]bool),
	}
	if l.diff == nil {
		l.diff = types.BigCopy(cfg.MinimumDifficulty)
	}
	l.diffFloat = types.BigToFloat64(l.diff)
	for addr, bal := range gen.Alloc {
		l.accounts[addr] = &fastAccount{balance: types.BigCopy(bal)}
	}
	for addr := range gen.Code {
		l.contracts[addr] = true
		if _, ok := l.accounts[addr]; !ok {
			l.accounts[addr] = &fastAccount{balance: new(big.Int)}
		}
	}
	return l
}

// Config implements Ledger.
func (l *FastLedger) Config() *chain.Config { return l.cfg }

// HeadNumber implements Ledger.
func (l *FastLedger) HeadNumber() uint64 { return l.number }

// HeadTime implements Ledger.
func (l *FastLedger) HeadTime() uint64 { return l.time }

// HeadDifficulty implements Ledger.
func (l *FastLedger) HeadDifficulty() *big.Int { return types.BigCopy(l.diff) }

// HeadDifficultyFloat implements Ledger.
func (l *FastLedger) HeadDifficultyFloat() float64 { return l.diffFloat }

// headDiffRef lends out the live head-difficulty big.Int; sim-internal
// readers must copy (big.Int.Set) before the next MineBlock.
func (l *FastLedger) headDiffRef() *big.Int { return l.diff }

// resetDayArena recycles the day's included-transaction backing; the
// engine calls it at the day barrier once every borrower is done.
func (l *FastLedger) resetDayArena() { l.incArena = l.incArena[:0] }

func (l *FastLedger) account(a types.Address) *fastAccount {
	acct, ok := l.accounts[a]
	if !ok {
		acct = &fastAccount{balance: new(big.Int)}
		l.accounts[a] = acct
	}
	return acct
}

// NonceOf implements Ledger.
func (l *FastLedger) NonceOf(a types.Address) uint64 {
	if acct, ok := l.accounts[a]; ok {
		return acct.nonce
	}
	return 0
}

// BalanceOf implements Ledger.
func (l *FastLedger) BalanceOf(a types.Address) *big.Int {
	if acct, ok := l.accounts[a]; ok {
		return types.BigCopy(acct.balance)
	}
	return new(big.Int)
}

// ValidateTx mirrors chain.Processor.ValidateTx against the fast state.
// Allocation-free on the accept path: number, cost and balance checks run
// in ledger scratch space.
func (l *FastLedger) ValidateTx(tx *chain.Transaction) error {
	_, err := l.validateTx(tx)
	return err
}

// validateTx is ValidateTx returning the sender's account record, so the
// mining loop gets the one map lookup all its checks and debits share.
func (l *FastLedger) validateTx(tx *chain.Transaction) (*fastAccount, error) {
	if err := tx.VerifySig(); err != nil {
		return nil, err
	}
	if tx.ChainID != 0 {
		if !l.cfg.IsEIP155(l.numScratch.SetUint64(l.number + 1)) {
			return nil, fmt.Errorf("%w: chain ids not active", chain.ErrWrongChainID)
		}
		if tx.ChainID != l.cfg.ChainID {
			return nil, fmt.Errorf("%w: tx bound to %d, chain is %d", chain.ErrWrongChainID, tx.ChainID, l.cfg.ChainID)
		}
	}
	sender := l.accounts[tx.From]
	var nonce uint64
	if sender != nil {
		nonce = sender.nonce
	}
	switch {
	case tx.Nonce < nonce:
		return nil, fmt.Errorf("%w: tx %d, account %d", chain.ErrNonceTooLow, tx.Nonce, nonce)
	case tx.Nonce > nonce:
		return nil, fmt.Errorf("%w: tx %d, account %d", chain.ErrNonceTooHigh, tx.Nonce, nonce)
	}
	if tx.IntrinsicGas() > tx.GasLimit {
		return nil, chain.ErrIntrinsicGas
	}
	cost := tx.CostInto(&l.costScratch, &l.costTmp)
	if sender == nil || sender.balance.Cmp(cost) < 0 {
		return nil, chain.ErrInsufficientFunds
	}
	return sender, nil
}

// ApplyDAOFork mirrors the irregular state change for fast-mode chains.
func (l *FastLedger) ApplyDAOFork() {
	for _, addr := range l.cfg.DAODrainList {
		acct := l.account(addr)
		if acct.balance.Sign() == 0 {
			continue
		}
		refund := l.account(l.cfg.DAORefundContract)
		refund.balance.Add(refund.balance, acct.balance)
		acct.balance = new(big.Int)
	}
}

// MineBlock implements Ledger: advances the head, applies valid
// transactions (intrinsic gas only — no EVM), pays fees and the reward.
func (l *FastLedger) MineBlock(time uint64, coinbase types.Address, txs []*chain.Transaction) ([]*chain.Transaction, error) {
	if time <= l.time {
		time = l.time + 1
	}
	// Double-buffer the difficulty: NextDifficulty writes the child value
	// into diffScratch, then the buffers swap so the old head big.Int
	// becomes the next call's scratch. No allocation either way.
	next := chain.NextDifficulty(l.cfg, time, l.time, l.number, l.diff, l.diffScratch)
	l.diffScratch, l.diff = l.diff, next
	l.diffFloat = types.BigToFloat64(l.diff)
	l.time = time
	l.number++

	if l.cfg.DAOForkSupport && l.cfg.IsDAOFork(l.numScratch.SetUint64(l.number)) {
		l.ApplyDAOFork()
	}

	start := len(l.incArena)
	gasPool := l.cfg.GasLimit
	// One coinbase lookup per block: account pointers stay valid while
	// the map grows underneath.
	cb := l.account(coinbase)
	for _, tx := range txs {
		sender, err := l.validateTx(tx)
		if err != nil {
			continue
		}
		gasUsed := tx.IntrinsicGas()
		if gasUsed > gasPool {
			continue
		}
		gasPool -= gasUsed
		fee := l.feeScratch.SetUint64(gasUsed)
		fee.Mul(fee, tx.GasPrice)
		sender.nonce = tx.Nonce + 1
		sender.balance.Sub(sender.balance, tx.Value)
		sender.balance.Sub(sender.balance, fee)
		if tx.To != nil {
			rcpt := l.account(*tx.To)
			rcpt.balance.Add(rcpt.balance, tx.Value)
		}
		cb.balance.Add(cb.balance, fee)
		l.incArena = append(l.incArena, tx)
	}
	cb.balance.Add(cb.balance, l.cfg.BlockReward)
	if len(l.incArena) == start {
		return nil, nil
	}
	// Full-capacity slice so a later append for another block cannot
	// clobber this one's tail.
	included := l.incArena[start:len(l.incArena):len(l.incArena)]
	return included, nil
}

// FullLedger adapts a real chain.Blockchain (with PoW seals) to the Ledger
// interface. The seal RNG r is owned by the ledger's partition goroutine;
// the engine hands each chain its own seed-derived stream (prng.New with
// a "seal"/<chain> label path) so concurrent partitions never share it.
type FullLedger struct {
	BC *chain.Blockchain
	r  *rand.Rand

	numScratch big.Int // block-number scratch for rule checks

	// view is the one read-only head state behind ValidateTx, NonceOf and
	// BalanceOf, so a day's traffic planning resolves each trie node once
	// instead of once per call. headView replaces it when the head moves
	// (viewHead), when the chain is reopened (viewBC), or when a read on it
	// faulted — a state.DB latches its first storage error, and a latched
	// view must not answer again.
	view     *state.DB
	viewBC   *chain.Blockchain
	viewHead types.Hash
}

// NewFullLedger creates a full-fidelity ledger from a genesis spec over a
// fresh default in-memory store.
func NewFullLedger(cfg *chain.Config, gen *chain.Genesis, r *rand.Rand) (*FullLedger, error) {
	return NewFullLedgerWithDB(cfg, gen, r, db.NewMemDB())
}

// NewFullLedgerWithDB creates a full-fidelity ledger persisting through the
// given store (the Scenario.Storage knob arrives here).
func NewFullLedgerWithDB(cfg *chain.Config, gen *chain.Genesis, r *rand.Rand, kv db.KV) (*FullLedger, error) {
	bc, err := chain.NewBlockchainWithDB(cfg, gen, kv)
	if err != nil {
		return nil, err
	}
	return &FullLedger{BC: bc, r: r}, nil
}

// Config implements Ledger.
func (l *FullLedger) Config() *chain.Config { return l.BC.Config() }

// HeadNumber implements Ledger.
func (l *FullLedger) HeadNumber() uint64 { return l.BC.Head().Number() }

// HeadTime implements Ledger.
func (l *FullLedger) HeadTime() uint64 { return l.BC.Head().Header.Time }

// HeadDifficulty implements Ledger.
func (l *FullLedger) HeadDifficulty() *big.Int {
	return types.BigCopy(l.BC.Head().Header.Difficulty)
}

// HeadDifficultyFloat implements Ledger.
func (l *FullLedger) HeadDifficultyFloat() float64 {
	return types.BigToFloat64(l.BC.Head().Header.Difficulty)
}

// headDiffRef lends out the head block's difficulty; sim-internal readers
// must copy (big.Int.Set) before the head moves.
func (l *FullLedger) headDiffRef() *big.Int { return l.BC.Head().Header.Difficulty }

// headView returns the cached head-state view, reopening it per the
// invalidation rule on FullLedger.view.
func (l *FullLedger) headView() (*state.DB, error) {
	head := l.BC.Head().Hash()
	if l.view == nil || l.viewBC != l.BC || l.viewHead != head || l.view.Error() != nil {
		st, err := l.BC.StateAt(head)
		if err != nil {
			return nil, err
		}
		l.view, l.viewBC, l.viewHead = st, l.BC, head
	}
	return l.view, nil
}

// ValidateTx implements Ledger.
func (l *FullLedger) ValidateTx(tx *chain.Transaction) error {
	st, err := l.headView()
	if err != nil {
		return err
	}
	return l.BC.Processor().ValidateTx(tx, st, l.numScratch.SetUint64(l.HeadNumber()+1))
}

// NonceOf implements Ledger.
func (l *FullLedger) NonceOf(a types.Address) uint64 {
	st, err := l.headView()
	if err != nil {
		return 0
	}
	return st.GetNonce(a)
}

// BalanceOf implements Ledger.
func (l *FullLedger) BalanceOf(a types.Address) *big.Int {
	st, err := l.headView()
	if err != nil {
		return new(big.Int)
	}
	return st.GetBalance(a)
}

// MineBlock implements Ledger: one chain.MineBlock call executes the
// candidates once against the real header, seals and persists the block.
func (l *FullLedger) MineBlock(time uint64, coinbase types.Address, txs []*chain.Transaction) ([]*chain.Transaction, error) {
	block, err := l.BC.MineBlock(coinbase, time, txs, nil, func(h *chain.Header) { pow.Seal(h, l.r) })
	if err != nil {
		return nil, err
	}
	return block.Txs, nil
}
