package sim

import (
	"fmt"
	"math"
	"math/big"
	"runtime"
	"strings"

	"forkwatch/internal/chain"
	"forkwatch/internal/db"
	"forkwatch/internal/db/diskdb/faultfile"
	"forkwatch/internal/market"
	"forkwatch/internal/spec"
	"forkwatch/internal/types"
)

// Mode selects the ledger fidelity (see the package comment).
type Mode int

// Ledger fidelities.
const (
	// ModeFast simulates headers and accounts; default for long runs.
	ModeFast Mode = iota
	// ModeFull materialises real blocks with EVM execution and state
	// roots.
	ModeFull
)

// Scenario configures one fork simulation. NewScenario fills the
// calibration the experiments use; tests and ablations override fields.
type Scenario struct {
	// Seed drives every stochastic component; equal seeds reproduce runs
	// bit for bit.
	Seed int64
	// Mode selects ledger fidelity.
	Mode Mode
	// Days simulated, starting at the fork moment (day 0).
	Days int
	// DayLength is the simulated seconds per "day" (86400 by default).
	// Tests shrink it to exercise the full-fidelity mode cheaply; all
	// daily rates (transactions, consolidation, prices) are per
	// DayLength.
	DayLength uint64
	// Epoch is the unix time of the fork (2016-07-20 13:20:40 UTC).
	Epoch uint64
	// Storage selects the key-value backend each full-fidelity chain
	// persists through (trie nodes, blocks, receipts). The zero value is
	// the default in-memory store; ModeFast keeps no chain
	// storage and ignores it.
	Storage db.Config
	// StorageFaults injects deterministic storage faults into every
	// full-fidelity chain's store (ModeFast ignores it). Partition i's
	// fault stream runs on Seed+i so the partitions fail independently;
	// the stack and its injection-pause rule are in storage.go.
	StorageFaults faultfile.Faults
	// Crashes schedules storage crashes (ModeFull only): each spec kills
	// one chain's store mid-commit, after which the engine reopens it,
	// runs WAL recovery and resumes mining. A store that recovery cannot
	// repair retires the chain for the rest of the run, like a mining
	// population departing (O1/O2).
	Crashes []CrashSpec

	// Parallelism caps how many goroutines the engine uses to step the
	// partitions between day barriers: 0 means GOMAXPROCS, 1 forces
	// the serial fallback, >=2 steps partitions concurrently. Output is
	// byte-identical across all settings — every stochastic component
	// draws from its own seed-derived stream (internal/prng), so
	// scheduling never reorders draws (DESIGN.md §10).
	Parallelism int

	// Partitions lists the named partitions of the fork. Empty means the
	// historical two-way ETH/ETC split synthesised from the scalar
	// calibration below (LegacyPartitions); setting it explicitly turns
	// the scenario into an N-way experiment — see DESIGN.md §12 and
	// Scenario.Validate for the cross-field rules.
	Partitions []PartitionSpec

	// TotalHashrate is the combined network hashrate at the fork, in
	// hashes/second. Genesis difficulty is calibrated so the pre-fork
	// network produced 14-second blocks.
	TotalHashrate float64
	// ETCShareAtFork is the fraction of hashrate that stays on ETC the
	// moment the fork activates (the paper's drastic partition: ~3%,
	// producing the ~90% node loss and near-zero block rate).
	ETCShareAtFork float64
	// RejoinShare is the additional total-hashrate fraction that returns
	// to ETC over the weeks after the fork (the paper's two-week
	// mirror-image difficulty shift), with exponential time constant
	// RejoinTauDays.
	RejoinShare   float64
	RejoinTauDays float64
	// ETHGrowthPerDay is the exogenous daily growth of ETH-side
	// hashrate over the long term (observation O3: ETH difficulty grew
	// roughly 10x over 9 months).
	ETHGrowthPerDay float64
	// ZcashLaunchDay and ZcashPull model the late-October Zcash launch:
	// up to ZcashPull of total hashrate leaves both chains, returning
	// over ZcashReturnTauDays (the Fig 3 dip and rally).
	ZcashLaunchDay     int
	ZcashPull          float64
	ZcashReturnTauDays float64
	// ArbitrageElasticity couples the two chains' hashrate split to
	// prices (market.Allocator).
	ArbitrageElasticity float64

	// Market generates daily USD prices.
	Market market.Params

	// Users is the size of the pre-fork account population.
	Users int
	// UserFunds is each user's pre-fork balance in wei.
	UserFunds *big.Int
	// SplitFraction is the share of users who protect themselves by
	// moving funds to chain-specific addresses shortly after the fork.
	SplitFraction float64
	// PrimaryETHFraction / PrimaryETCFraction divide users into
	// single-chain populations; the remainder transacts on both. The
	// paper notes "many users simply picked one of the two networks to
	// participate in and ignored the other" — those users' other-chain
	// nonces only advance through replays, which is why echo streams
	// stay alive for months (Fig 4).
	PrimaryETHFraction, PrimaryETCFraction float64
	// ETHTxPerDay and ETCTxPerDay are base daily transaction rates
	// (Poisson means). The paper's ratio is ~2.5:1, rising to ~5:1 in
	// March 2017; SpeculationStartDay and SpeculationFactor implement
	// the rise.
	ETHTxPerDay, ETCTxPerDay float64
	SpeculationStartDay      int
	SpeculationFactor        float64
	// ContractFraction is the share of transactions that are contract
	// calls (Fig 2, bottom: ~30-40% on both chains).
	ContractFraction float64
	// ReplayProbability is the chance a replayable mined transaction is
	// rebroadcast onto the other chain the next day (attackers plus
	// accidental rebroadcasters).
	ReplayProbability float64
	// EIP155DayETH / EIP155DayETC are the days replay protection
	// activates (ETH: Spurious Dragon ~day 125; ETC: Jan 13 2017 ~day
	// 177). Negative disables.
	EIP155DayETH, EIP155DayETC int
	// ChainIDAdoptionTauDays is how quickly users adopt chain-bound
	// transactions once available.
	ChainIDAdoptionTauDays float64
	// ChainIDAdoptionMax is the fraction of users who ever adopt replay
	// protection; the rest run legacy wallets forever. This is why the
	// paper still observed hundreds of daily echoes at the end of its
	// study window, months after chain ids shipped.
	ChainIDAdoptionMax float64

	// Pool model: counts and dynamics (Fig 5).
	ETHPools, ETCPools       int
	ETHPoolZipf              float64
	ETCPoolChurn             float64
	ETCPoolAlpha             float64
	ETCPoolCap               float64
	ETHPoolChurn             float64
	PoolConsolidationLagDays int

	// StructuralBlendTauDays controls how quickly the hashrate split
	// hands over from the structural fork-exit schedule to pure price
	// arbitrage (see Engine.Run).
	StructuralBlendTauDays float64

	// DAO fork plumbing.
	DAOAccounts int
	DAOFunds    *big.Int
}

// CrashSpec schedules one storage crash: the store of the partition
// named Chain is killed on the (Op+1)-th append to its files counted from
// the Block-th block (0-based) it mines on Day. Every mined block commits
// as one append, so Op 0 tears that block's own commit and Op n the
// commit n blocks later. The tear leaves a random strict prefix of the
// append on the medium; the restart's recovery scan drops it whole, and
// the block is re-mined.
type CrashSpec struct {
	Chain string
	Day   int
	Block int
	Op    uint64
}

// crashKnobs declares a crash spec's fields in their -crash order.
var crashKnobs = []spec.Knob{
	{Keys: "chain", Field: "Chain"},
	{Keys: "day", Field: "Day", Max: math.Inf(1)},
	{Keys: "block", Field: "Block", Max: math.Inf(1)},
	{Keys: "op", Field: "Op"},
}

// ParseCrashSpecs parses a comma-separated crash schedule, the format
// behind cmd/forksim's -crash flag. Each element is chain:day:block:op,
// e.g. "ETH:1:3:40,ETC:2:0:5" — kill the ETH store on the commit 40
// blocks after its 4th block on day 1, and the ETC store on the commit 5
// blocks after its first block on day 2.
func ParseCrashSpecs(s string) ([]CrashSpec, error) {
	var out []CrashSpec
	for _, part := range spec.List(s, ",") {
		fields := strings.Split(part, ":")
		if len(fields) != len(crashKnobs) {
			return nil, fmt.Errorf("sim: bad crash spec %q (want chain:day:block:op)", part)
		}
		var cs CrashSpec
		for i, k := range crashKnobs {
			if err := k.Set(&cs, strings.TrimSpace(fields[i])); err != nil {
				return nil, fmt.Errorf("sim: bad crash spec %q: %w", part, err)
			}
		}
		cs.Chain = strings.ToUpper(cs.Chain)
		if !partitionNameRE.MatchString(cs.Chain) {
			return nil, fmt.Errorf("sim: bad crash spec chain %q (want a partition name)", fields[0])
		}
		out = append(out, cs)
	}
	return out, nil
}

// NewScenario returns the calibrated default scenario over the given
// horizon.
func NewScenario(seed int64, days int) *Scenario {
	return &Scenario{
		Seed:      seed,
		Mode:      ModeFast,
		Days:      days,
		DayLength: 86_400,
		Epoch:     1469020840,

		TotalHashrate:       5e12, // 5 TH/s, mid-2016 scale
		ETCShareAtFork:      0.015,
		RejoinShare:         0.08,
		RejoinTauDays:       10,
		ETHGrowthPerDay:     0.007, // several-fold over 9 months (O3)
		ZcashLaunchDay:      100,
		ZcashPull:           0.25,
		ZcashReturnTauDays:  25,
		ArbitrageElasticity: 0.1,

		Market: market.DefaultParams(days),

		Users:                  400,
		UserFunds:              new(big.Int).Mul(big.NewInt(1000), big.NewInt(1e18)),
		SplitFraction:          0.4,
		PrimaryETHFraction:     0.55,
		PrimaryETCFraction:     0.25,
		ETHTxPerDay:            400,
		ETCTxPerDay:            110,
		SpeculationStartDay:    240,
		SpeculationFactor:      2.0,
		ContractFraction:       0.35,
		ReplayProbability:      0.5,
		EIP155DayETH:           125,
		EIP155DayETC:           177,
		ChainIDAdoptionTauDays: 30,
		ChainIDAdoptionMax:     0.8,

		ETHPools:                 20,
		ETCPools:                 25,
		ETHPoolZipf:              1.0,
		ETCPoolChurn:             0.15,
		ETCPoolAlpha:             1.3,
		ETCPoolCap:               0.24,
		ETHPoolChurn:             0, // ETH's distribution was stable from day one (O6)
		PoolConsolidationLagDays: 30,

		StructuralBlendTauDays: 20,

		DAOAccounts: 4,
		DAOFunds:    new(big.Int).Mul(big.NewInt(3_000_000), big.NewInt(1e18)),
	}
}

// ResolveParallelism returns the effective engine worker count:
// Parallelism when positive, otherwise GOMAXPROCS.
func (sc *Scenario) ResolveParallelism() int {
	if sc.Parallelism > 0 {
		return sc.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// LedgerSizeHint estimates how many blocks and transactions a run of the
// scenario mines over all partitions, for observers that retain every one
// and want to size their storage once. Blocks: every partition's
// difficulty filter steers towards the target block time (a chain that
// lost its miners runs behind for a while, a growing one slightly ahead;
// 2 % covers the latter). Transactions: the base daily rates, each mined
// transaction replayed at most ReplayProbability of the time, plus one
// fund-splitting transaction per user and partition. Neither is a bound.
func (sc *Scenario) LedgerSizeHint() (blocks, txs int) {
	specs := sc.PartitionSpecs()
	perChain := float64(sc.Days) * float64(sc.DayLength) / float64(chain.MainnetLikeConfig().TargetBlockTime)
	blocks = int(1.02 * perChain * float64(len(specs)))
	var perDay float64
	for _, sp := range specs {
		perDay += sp.TxPerDay
	}
	txs = int(float64(sc.Days)*perDay*(1+sc.ReplayProbability)) + sc.Users*len(specs)
	return blocks, txs
}

// GenesisDifficulty returns the difficulty at which the pre-fork network
// produced blocks at the target rate.
func (sc *Scenario) GenesisDifficulty() *big.Int {
	d := sc.TotalHashrate * 14
	bi, _ := big.NewFloat(d).Int(nil)
	return bi
}

// DAOAddress returns the i-th DAO account address.
func DAOAddress(i int) types.Address {
	return types.BytesToAddress([]byte{0xda, 0x00, byte(i)})
}

// DAORefundAddress is where the supporting chain moves the DAO balances.
var DAORefundAddress = types.BytesToAddress([]byte{0xbb, 0x90, 0x44})

// UserAddress returns the i-th pre-fork user address.
func UserAddress(i int) types.Address {
	return types.BytesToAddress([]byte{0xee, byte(i >> 8), byte(i)})
}

// ContractAddress returns the i-th pre-deployed contract address.
func ContractAddress(i int) types.Address {
	return types.BytesToAddress([]byte{0xcc, 0x00, byte(i)})
}
