// Package chain implements the blockchain substrate both partitions run
// on: blocks, transactions, the Homestead difficulty-adjustment rule,
// transaction execution, total-difficulty fork choice and a transaction
// pool.
//
// The ETH/ETC split is expressed entirely through Config: both chains
// share a genesis and a common prefix; at DAOForkBlock the chain with
// DAOForkSupport=true applies the irregular state change (and marks its
// fork id), while the other keeps the attacker's balances. EIP155Block
// retrofits replay protection, which is what eventually suppresses the
// echo traffic of Fig 4.
package chain

import (
	"math/big"

	"forkwatch/internal/types"
)

// Ether is the base currency unit in wei.
var Ether = new(big.Int).Exp(big.NewInt(10), big.NewInt(18), nil)

// Config selects the consensus rules of one partition.
type Config struct {
	// Name labels the chain in analysis output ("ETH", "ETC").
	Name string
	// ChainID is the EIP-155 replay-protection domain (1 for ETH, 61
	// for ETC).
	ChainID uint64

	// TargetBlockTime is the block interval the difficulty filter aims
	// for, 14 seconds in Ethereum (the paper quotes 14s).
	TargetBlockTime uint64
	// DifficultyBoundDivisor caps the per-block difficulty step (2048).
	DifficultyBoundDivisor *big.Int
	// MinimumDifficulty floors the difficulty (131072).
	MinimumDifficulty *big.Int
	// DifficultyClampFactor is the largest downward adjustment multiple
	// (99 in Homestead: max decrease is 99/2048 per block). The ablation
	// bench varies this; see DESIGN.md §5.
	DifficultyClampFactor int64
	// EnableBomb adds the exponential "ice age" term to the difficulty.
	// Disabled by default: it is provably negligible over the paper's
	// measurement window (see TestBombNegligibleInStudyWindow).
	EnableBomb bool

	// BlockReward is the coinbase subsidy per block (5 ether at the
	// fork).
	BlockReward *big.Int
	// GasLimit is the gas-limit *target* miners vote toward. Per block
	// the limit may move by at most parent/GasLimitBoundDivisor, as in
	// Ethereum; BuildBlock walks it toward this target.
	GasLimit uint64

	// DAOForkBlock is the height of the DAO hard fork; nil disables it.
	DAOForkBlock *big.Int
	// DAOForkSupport selects the pro-fork rules (ETH) when true, the
	// classic rules (ETC) when false. Chains with different support
	// flags at the fork block refuse each other's blocks from that
	// height on.
	DAOForkSupport bool
	// DAODrainList enumerates the accounts whose balances the
	// supporting chain moves to DAORefundContract at the fork block.
	DAODrainList []types.Address
	// DAORefundContract receives the drained balances.
	DAORefundContract types.Address

	// EIP155Block activates chain-id replay protection; nil disables.
	// (ETH: Spurious Dragon, Nov 2016; ETC: Jan 13 2017, per the paper.)
	EIP155Block *big.Int
}

// MainnetLikeConfig returns the shared pre-fork rule set. Callers derive
// the two partitions with ETHConfig/ETCConfig.
func MainnetLikeConfig() *Config {
	return &Config{
		Name:                   "PRE",
		ChainID:                1,
		TargetBlockTime:        14,
		DifficultyBoundDivisor: big.NewInt(2048),
		MinimumDifficulty:      big.NewInt(131072),
		DifficultyClampFactor:  99,
		BlockReward:            new(big.Int).Mul(big.NewInt(5), Ether),
		GasLimit:               4_700_000,
	}
}

// PartitionConfig derives one partition's rule set from the shared
// pre-fork rules: every partition forks at daoForkBlock, and the support
// flag decides whether the irregular state change applies (drain and
// refund are only wired into supporting chains). ETHConfig and ETCConfig
// are the two historical instantiations.
func PartitionConfig(name string, chainID uint64, daoForkBlock uint64, support bool, drain []types.Address, refund types.Address) *Config {
	c := MainnetLikeConfig()
	c.Name = name
	c.ChainID = chainID
	c.DAOForkBlock = new(big.Int).SetUint64(daoForkBlock)
	c.DAOForkSupport = support
	if support {
		c.DAODrainList = drain
		c.DAORefundContract = refund
	}
	return c
}

// ETHConfig returns the pro-fork (Ethereum) rule set.
func ETHConfig(daoForkBlock uint64, drain []types.Address, refund types.Address) *Config {
	return PartitionConfig("ETH", 1, daoForkBlock, true, drain, refund)
}

// ETCConfig returns the anti-fork (Ethereum Classic) rule set.
func ETCConfig(daoForkBlock uint64) *Config {
	return PartitionConfig("ETC", 61, daoForkBlock, false, nil, types.Address{})
}

// IsDAOFork reports whether num is the DAO fork block.
func (c *Config) IsDAOFork(num *big.Int) bool {
	return c.DAOForkBlock != nil && c.DAOForkBlock.Cmp(num) == 0
}

// IsEIP155 reports whether replay protection is active at num.
func (c *Config) IsEIP155(num *big.Int) bool {
	return c.EIP155Block != nil && c.EIP155Block.Cmp(num) <= 0
}

// ForkID summarises the rule set a peer enforces at its head; the p2p
// status handshake compares fork ids and drops peers on the other side of
// the partition (the mechanism behind the paper's observation O1).
type ForkID struct {
	DAOForkBlock   uint64
	DAOForkSupport bool
}

// ForkIDAt returns the chain's fork id given its head number.
func (c *Config) ForkIDAt(head *big.Int) ForkID {
	if c.DAOForkBlock == nil || c.DAOForkBlock.Cmp(head) > 0 {
		// Not yet at the fork: still compatible with both sides.
		return ForkID{}
	}
	return ForkID{DAOForkBlock: c.DAOForkBlock.Uint64(), DAOForkSupport: c.DAOForkSupport}
}

// Compatible reports whether two fork ids can stay peered.
func (f ForkID) Compatible(o ForkID) bool {
	if f.DAOForkBlock == 0 || o.DAOForkBlock == 0 {
		return true // at least one side has not reached the fork
	}
	return f == o
}
