package p2p

import (
	"math/big"

	"forkwatch/internal/chain"
	"forkwatch/internal/types"
)

// Backend is the ledger a p2p server gossips for.
type Backend interface {
	// Genesis returns the genesis hash (handshake check).
	Genesis() types.Hash
	// Head returns the canonical head hash, height and total difficulty.
	Head() (types.Hash, uint64, *big.Int)
	// ForkID returns the fork id at the head (handshake check).
	ForkID() chain.ForkID
	// InsertBlock imports a gossiped block.
	InsertBlock(b *chain.Block) error
	// InsertChain imports a received block range in order as one commit,
	// skipping known blocks, and reports how many it inserted; it stops at
	// the first invalid block, keeping the ones before it.
	InsertChain(blocks []*chain.Block) (int, error)
	// BlockByNumber serves sync requests from the canonical chain.
	BlockByNumber(n uint64) (*chain.Block, bool)
	// HasBlock reports whether a block is already known.
	HasBlock(h types.Hash) bool
	// AddTransaction imports a gossiped transaction. Invalid
	// transactions return an error and are not re-gossiped.
	AddTransaction(tx *chain.Transaction) error
	// KnowsTransaction reports whether the transaction was already seen
	// (gossip dedup).
	KnowsTransaction(h types.Hash) bool
}

// ChainBackend adapts a chain.Blockchain plus its TxPool to the Backend
// interface.
type ChainBackend struct {
	BC   *chain.Blockchain
	Pool *chain.TxPool
}

// NewChainBackend wires a blockchain and a fresh tx pool together.
func NewChainBackend(bc *chain.Blockchain) *ChainBackend {
	return &ChainBackend{BC: bc, Pool: chain.NewTxPool(bc)}
}

// Genesis implements Backend.
func (c *ChainBackend) Genesis() types.Hash { return c.BC.Genesis().Hash() }

// Head implements Backend.
func (c *ChainBackend) Head() (types.Hash, uint64, *big.Int) {
	head := c.BC.Head()
	td, _ := c.BC.TD(head.Hash())
	return head.Hash(), head.Number(), td
}

// ForkID implements Backend.
func (c *ChainBackend) ForkID() chain.ForkID { return c.BC.ForkID() }

// InsertBlock implements Backend.
func (c *ChainBackend) InsertBlock(b *chain.Block) error {
	err := c.BC.InsertBlock(b)
	if err == nil {
		c.Pool.Reset()
	}
	return err
}

// InsertChain implements Backend.
func (c *ChainBackend) InsertChain(blocks []*chain.Block) (int, error) {
	n, err := c.BC.InsertChain(blocks)
	if n > 0 {
		c.Pool.Reset()
	}
	return n, err
}

// BlockByNumber implements Backend.
func (c *ChainBackend) BlockByNumber(n uint64) (*chain.Block, bool) {
	return c.BC.BlockByNumber(n)
}

// HasBlock implements Backend.
func (c *ChainBackend) HasBlock(h types.Hash) bool { return c.BC.HasBlock(h) }

// AddTransaction implements Backend.
func (c *ChainBackend) AddTransaction(tx *chain.Transaction) error {
	return c.Pool.Add(tx)
}

// KnowsTransaction implements Backend.
func (c *ChainBackend) KnowsTransaction(h types.Hash) bool { return c.Pool.Has(h) }
