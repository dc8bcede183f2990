package chain

import (
	"fmt"
	"math/big"
	"sync"

	"forkwatch/internal/evm"
	"forkwatch/internal/state"
	"forkwatch/internal/types"
)

// txScratch holds the per-transaction big.Int workspace of
// ApplyTransaction. The state mutators and the EVM copy their big.Int
// arguments, so the scratches only need to live for the call; a pool (not
// Processor fields) keeps ApplyTransaction safe under concurrent callers.
type txScratch struct {
	num   big.Int
	gas   big.Int
	money big.Int
}

var txScratchPool = sync.Pool{New: func() any { return new(txScratch) }}

// Processor executes blocks against state: per-transaction gas purchase,
// EVM execution, fee payment and the coinbase reward, plus the DAO
// irregular state change on the supporting chain at the fork block.
type Processor struct {
	cfg *Config
}

// NewProcessor returns a processor for the given rule set.
func NewProcessor(cfg *Config) *Processor { return &Processor{cfg: cfg} }

// ApplyDAOFork performs the irregular state change: every drained
// account's balance moves to the refund contract. Called exactly once, at
// the fork block, on the supporting chain.
func (p *Processor) ApplyDAOFork(st *state.DB) {
	for _, addr := range p.cfg.DAODrainList {
		bal := st.GetBalance(addr)
		if bal.Sign() == 0 {
			continue
		}
		st.SubBalance(addr, bal)
		st.AddBalance(p.cfg.DAORefundContract, bal)
	}
}

// Process executes the block body on st (the parent's state) and returns
// the receipts. st is mutated; the caller commits and checks the root.
func (p *Processor) Process(block *Block, st *state.DB) ([]*Receipt, error) {
	header := block.Header
	p.applyIrregular(header.Number, st)
	var receipts []*Receipt
	gasPool := header.GasLimit
	for i, tx := range block.Txs {
		rec, used, err := p.ApplyTransaction(tx, st, header, gasPool)
		if err != nil {
			return nil, fmt.Errorf("tx %d (%s): %w", i, tx.Hash(), err)
		}
		gasPool -= used
		receipts = append(receipts, rec)
	}
	p.payRewards(header, block.Uncles, st)
	return receipts, nil
}

// applyIrregular opens a block's execution: the DAO irregular state change
// on the supporting chain at the fork block, nothing anywhere else.
func (p *Processor) applyIrregular(number uint64, st *state.DB) {
	if p.cfg.DAOForkSupport && p.cfg.IsDAOFork(new(big.Int).SetUint64(number)) {
		p.ApplyDAOFork(st)
	}
}

// payRewards closes a block's execution: the coinbase reward plus the
// uncle schedule (uncle miners get the depth-scaled partial reward; the
// including miner 1/32 per uncle).
func (p *Processor) payRewards(header *Header, uncles []*Header, st *state.DB) {
	reward := types.BigCopy(p.cfg.BlockReward)
	bonus := p.uncleRewards(header.Number, uncles, func(a types.Address, r *big.Int) {
		st.AddBalance(a, r)
	})
	reward.Add(reward, bonus)
	st.AddBalance(header.Coinbase, reward)
}

// ValidateTx checks a transaction's signature, replay domain and funding
// against the given state without executing it. Used by the tx pool and as
// the first stage of ApplyTransaction.
func (p *Processor) ValidateTx(tx *Transaction, st *state.DB, blockNum *big.Int) error {
	if err := tx.VerifySig(); err != nil {
		return err
	}
	// Replay protection: a chain-bound transaction only executes on its
	// own chain — and only once the chain understands chain ids. Before
	// EIP155Block, chain-bound txs are not yet recognised (mirrors the
	// backwards-compatible rollout the paper describes).
	if tx.ChainID != 0 {
		if !p.cfg.IsEIP155(blockNum) {
			return fmt.Errorf("%w: chain ids not active until block %v", ErrWrongChainID, p.cfg.EIP155Block)
		}
		if tx.ChainID != p.cfg.ChainID {
			return fmt.Errorf("%w: tx bound to %d, chain is %d", ErrWrongChainID, tx.ChainID, p.cfg.ChainID)
		}
	}
	nonce := st.GetNonce(tx.From)
	switch {
	case tx.Nonce < nonce:
		return fmt.Errorf("%w: tx %d, account %d", ErrNonceTooLow, tx.Nonce, nonce)
	case tx.Nonce > nonce:
		return fmt.Errorf("%w: tx %d, account %d", ErrNonceTooHigh, tx.Nonce, nonce)
	}
	if tx.IntrinsicGas() > tx.GasLimit {
		return fmt.Errorf("%w: need %d, limit %d", ErrIntrinsicGas, tx.IntrinsicGas(), tx.GasLimit)
	}
	sc := txScratchPool.Get().(*txScratch)
	cost := tx.CostInto(&sc.money, &sc.gas)
	if st.BalanceCmp(tx.From, cost) < 0 {
		err := fmt.Errorf("%w: have %v, need %v", ErrInsufficientFunds, st.GetBalance(tx.From), tx.Cost())
		txScratchPool.Put(sc)
		return err
	}
	txScratchPool.Put(sc)
	return nil
}

// ApplyTransaction executes one transaction, returning its receipt and the
// gas it consumed from the block gas pool.
// Every big.Int used for gas accounting is pooled scratch: the state
// mutators and the EVM copy their arguments, so nothing leaks out.
func (p *Processor) ApplyTransaction(tx *Transaction, st *state.DB, header *Header, gasPool uint64) (*Receipt, uint64, error) {
	sc := txScratchPool.Get().(*txScratch)
	defer txScratchPool.Put(sc)
	num := sc.num.SetUint64(header.Number)
	if err := p.ValidateTx(tx, st, num); err != nil {
		return nil, 0, err
	}
	if tx.GasLimit > gasPool {
		return nil, 0, fmt.Errorf("chain: block gas pool exhausted: tx wants %d, pool %d", tx.GasLimit, gasPool)
	}

	// Buy gas up front. The nonce bump for creations happens inside
	// evm.Create (which derives the contract address from it); calls bump
	// it here.
	upfront := sc.money.Mul(tx.GasPrice, sc.gas.SetUint64(tx.GasLimit))
	st.SubBalance(tx.From, upfront)
	if !tx.IsContractCreation() {
		st.SetNonce(tx.From, tx.Nonce+1)
	}

	machine := evm.New(st, evm.Context{
		BlockNumber: num,
		Timestamp:   header.Time,
		Coinbase:    header.Coinbase,
		ChainID:     p.cfg.ChainID,
		Origin:      tx.From,
		GasPrice:    tx.GasPrice,
	})
	gas := tx.GasLimit - tx.IntrinsicGas()

	rec := &Receipt{TxHash: tx.Hash()}
	var gasLeft uint64
	var execErr error
	if tx.IsContractCreation() {
		rec.ContractCall = true
		var addr types.Address
		addr, gasLeft, execErr = machine.Create(tx.From, tx.Data, tx.Value, gas)
		rec.ContractAddress = addr
	} else {
		rec.ContractCall = len(st.GetCode(*tx.To)) > 0
		_, gasLeft, execErr = machine.Call(tx.From, *tx.To, tx.Data, tx.Value, gas)
	}
	rec.Status = execErr == nil

	gasUsed := tx.GasLimit - gasLeft
	rec.GasUsed = gasUsed

	// Refund unused gas; pay the fee to the coinbase.
	refund := sc.money.Mul(tx.GasPrice, sc.gas.SetUint64(gasLeft))
	st.AddBalance(tx.From, refund)
	fee := sc.money.Mul(tx.GasPrice, sc.gas.SetUint64(gasUsed))
	st.AddBalance(header.Coinbase, fee)
	return rec, gasUsed, nil
}
